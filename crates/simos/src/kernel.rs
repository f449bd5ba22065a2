//! The simulated kernel: syscall semantics, cost charging, and the glue
//! between file systems, the page cache, the VM, and the disks.
//!
//! Each mounted disk hosts one FFS-like file system: disk 0 at `/`, disk
//! *i* at `/d<i>`. The swap area occupies the top quarter of the configured
//! swap disk (the file system on that disk gets the rest), so swap I/O
//! contends with file I/O exactly when the configuration says it should.
//!
//! Every syscall is one kernel entry (`Kernel::enter`): its body runs on a
//! copy of the calling process's clock held in a local, each charge moves
//! that local, and the entry commits it once at the end. CPU work runs on
//! the [`crate::clock::CpuBank`] (with seeded noise), disk work queues FCFS
//! on the owning [`crate::disk::Disk`], a sleep only adds. Dirty evictions
//! are charged *synchronously* to the process that forced them — the
//! direct-reclaim behavior that makes memory pressure visible to MAC's
//! probes.

use gray_toolbox::hash::FastMap;
use gray_toolbox::{profile, trace};
use gray_toolbox::{GrayDuration, Nanos};
use graybox::os::{Fd, OsError, OsResult, ProbeSample, ProbeSpec, Stat};

use crate::cache::{Evicted, Owner, PageCache, PageId};
use crate::clock::{CpuBank, Noise, TIMER_READ};
use crate::config::{SimConfig, COSTS, PAGE_SIZE};
use crate::disk::Disk;
use crate::fs::{Fs, Ino, Inode, ITABLE_INO};
use crate::vm::{TouchKind, Vm};

/// Initial readahead window in pages.
const RA_INITIAL: u32 = 4;

/// Most dirty *file* pages the flusher writes back per epoch (a
/// kupdate-style bounded sweep). Anonymous pages are the swap path's
/// business.
pub const FLUSH_PAGES_PER_EPOCH: u64 = 64;

/// The CPU cost of copying `bytes` of one page between the cache and the
/// caller: `COSTS.copy_per_page` prorated by `bytes / PAGE_SIZE`. A whole
/// page, which is almost every page of a bulk read or write, is the
/// constant itself, as the prorating's `mul_f64(1.0)` of an integer below
/// 2^52 is; only a partial page is scaled in floating point.
#[inline]
fn copy_charge(bytes: u64) -> GrayDuration {
    if bytes == PAGE_SIZE {
        COSTS.copy_per_page
    } else {
        COSTS.copy_per_page.mul_f64(bytes as f64 / PAGE_SIZE as f64)
    }
}

/// Kernel-wide event counters (oracle / debugging).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Demand-zero page faults.
    pub zero_faults: u64,
    /// Pages read back from swap.
    pub swap_ins: u64,
    /// Pages written to swap.
    pub swap_outs: u64,
    /// File pages read from disk.
    pub file_page_reads: u64,
    /// File pages written to disk.
    pub file_page_writes: u64,
    /// File-cache hits.
    pub cache_hits: u64,
    /// File-cache misses.
    pub cache_misses: u64,
    /// Flusher epochs that have fired (including no-op epochs).
    pub flusher_runs: u64,
    /// Dirty file pages written back by the flusher.
    pub flusher_pages: u64,
}

/// Per-open-file state.
#[derive(Debug, Clone, Copy)]
struct OpenFile {
    dev: usize,
    ino: Ino,
    /// Next page a sequential reader would touch.
    next_seq_page: u64,
    /// The inode's generation at open: a later inode on the same
    /// i-number is another file.
    generation: u32,
    /// Current readahead window in pages. Two `u32`s keep a descriptor
    /// at 32 bytes: a finished process's table keeps its capacity, so
    /// every byte here is paid once per process a run spawns.
    ra_window: u32,
}

/// One process's clock.
#[derive(Debug, Clone, Copy)]
struct ProcClock {
    now: Nanos,
    live: bool,
}

/// The simulated kernel. Use through [`crate::Sim`]; the methods here take
/// an explicit `pid` because the executor hands each process a handle bound
/// to one.
#[derive(Debug)]
pub struct Kernel {
    cfg: SimConfig,
    cpus: CpuBank,
    noise: Noise,
    disks: Vec<Disk>,
    fss: Vec<Fs>,
    cache: PageCache,
    vm: Vm,
    /// First disk block of the swap area on the swap disk.
    swap_base: u64,
    /// Which disk swap lives on.
    swap_disk: usize,
    procs: Vec<ProcClock>,
    /// The latest instant any process clock has reached.
    high_water: Nanos,
    fdt: Vec<FastMap<u32, OpenFile>>,
    next_fd: Vec<u32>,
    stats: KernelStats,
    /// Virtual instant of the next flusher epoch; never reached when the
    /// flusher is off, so every kernel entry checks it with one compare.
    next_flush: Nanos,
}

impl Kernel {
    /// Boots a kernel from a validated configuration.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let mut disks: Vec<Disk> = cfg.disks.iter().map(|d| Disk::new(*d)).collect();
        let mut fss = Vec::with_capacity(disks.len());
        let mut swap_base = 0;
        for (i, disk) in disks.iter_mut().enumerate() {
            let blocks = if i == cfg.swap_disk {
                let fs_blocks = disk.blocks() / 4 * 3;
                swap_base = fs_blocks;
                fs_blocks
            } else {
                disk.blocks()
            };
            fss.push(Fs::new(cfg.fs, i as u32, blocks));
        }
        let swap_slots = disks[cfg.swap_disk].blocks() - swap_base;
        let cache = PageCache::new(cfg.cache_arch(), cfg.usable_pages());
        Kernel {
            cpus: CpuBank::new(cfg.cpus),
            noise: Noise::new(cfg.noise, cfg.seed),
            disks,
            fss,
            cache,
            vm: Vm::new(swap_slots),
            swap_base,
            swap_disk: cfg.swap_disk,
            procs: Vec::new(),
            high_water: Nanos::ZERO,
            fdt: Vec::new(),
            next_fd: Vec::new(),
            stats: KernelStats::default(),
            next_flush: cfg.writeback.map_or(Nanos(u64::MAX), |i| Nanos::ZERO + i),
            cfg,
        }
    }

    /// The configuration the kernel was booted with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Event counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    // --- Process lifecycle (used by the executor) -----------------------

    /// Registers a process starting at `start`; returns its pid.
    pub fn add_proc(&mut self, start: Nanos) -> usize {
        self.procs.push(ProcClock {
            now: start,
            live: true,
        });
        self.high_water = self.high_water.max(start);
        self.fdt.push(FastMap::default());
        self.next_fd.push(3);
        self.procs.len() - 1
    }

    /// Moves `pid`'s clock to `to`. Every clock write after `add_proc`
    /// goes through here so [`Kernel::max_time`] stays exact.
    #[inline]
    fn set_time(&mut self, pid: usize, to: Nanos) {
        self.procs[pid].now = to;
        self.high_water = self.high_water.max(to);
    }

    /// Marks a process finished.
    pub fn finish_proc(&mut self, pid: usize) {
        self.procs[pid].live = false;
        self.fdt[pid].clear();
    }

    /// A process's local clock (exact, unquantized).
    pub fn proc_time(&self, pid: usize) -> Nanos {
        self.procs[pid].now
    }

    /// Whether the process is live.
    pub fn proc_live(&self, pid: usize) -> bool {
        self.procs[pid].live
    }

    /// The conservative-DES resume rule: among `active` pids that are
    /// still live, the one with the smallest `(local time, pid)`. This
    /// O(n) scan is the definition; the executor's incremental run queue
    /// is checked against it at every decision in debug builds.
    pub fn next_runnable(&self, active: &[usize]) -> Option<usize> {
        active
            .iter()
            .copied()
            .filter(|&p| self.proc_live(p))
            .min_by_key(|&p| (self.proc_time(p), p))
    }

    /// The latest local time across all processes, finished ones
    /// included (experiment epilogue, and the start time of the next run).
    pub fn max_time(&self) -> Nanos {
        self.high_water
    }

    // --- Charging helpers -------------------------------------------------
    //
    // One helper per kind of charge. Each moves the entry's local clock
    // `now` and then tells the profiler, so the profiler cannot perturb
    // virtual time (pinned by a tier-1 test).

    /// Charges CPU work `d` to `pid` at `now`: the noise draw, then the
    /// CPU bank. Every CPU charge is this, in program order. The profiler
    /// files it under the open op frame, or under `op` for a step that
    /// runs inside another entry without a frame of its own. Inlined at
    /// every site, so a constant `d` reaches `Noise::apply` as a constant
    /// and picks its jitter table at compile time: a timed page touch
    /// makes three of these charges, none of them a call.
    #[inline(always)]
    fn cpu(&mut self, pid: usize, now: &mut Nanos, op: Option<&'static str>, d: GrayDuration) {
        let d = self.noise.apply(d);
        let done = self.cpus.run(*now, d);
        let ns = done.as_nanos() - now.as_nanos();
        *now = done;
        match op {
            Some(op) => profile::charge_in(pid as u64, op, "cpu", ns),
            None => profile::charge(pid as u64, "cpu", ns),
        }
    }

    /// Synchronous disk transfer at `now`, charged to `pid`.
    fn disk_io(&mut self, pid: usize, now: &mut Nanos, dev: usize, block: u64, nblocks: u64) {
        let done = self.disks[dev].transfer(*now, block, nblocks);
        profile::charge(pid as u64, "disk", done.as_nanos() - now.as_nanos());
        *now = done;
    }

    /// Handles a cache eviction: a dirty file page is written back to its
    /// home, a dirty anonymous page to swap; a clean page just vanishes.
    fn handle_evictions(
        &mut self,
        pid: usize,
        now: &mut Nanos,
        evicted: Option<Evicted>,
    ) -> OsResult<()> {
        let Some(e) = evicted.filter(|e| e.dirty) else {
            return Ok(());
        };
        match e.id.owner {
            Owner::File { dev, ino } => {
                let dev = dev as usize;
                if let Some(block) = self.home_block(dev, ino, e.id.page) {
                    self.disk_io(pid, now, dev, block, 1);
                    self.stats.file_page_writes += 1;
                }
            }
            Owner::Anon { region } => match self.vm.ensure_slot(region, e.id.page) {
                // A dirty page of a region that died is just dropped.
                Err(OsError::BadRegion) => {}
                slot => {
                    self.disk_io(pid, now, self.swap_disk, self.swap_base + slot?, 1);
                    self.stats.swap_outs += 1;
                }
            },
        }
        Ok(())
    }

    /// The disk block a cached file page is written back to: inode-table
    /// pages are cached by their disk block, data pages map through their
    /// file (`None` for a page with no block behind it).
    fn home_block(&self, dev: usize, ino: Ino, page: u64) -> Option<u64> {
        if ino == ITABLE_INO {
            Some(page)
        } else {
            self.fss[dev].block_of(ino, page)
        }
    }

    /// Fires any flusher epochs `now` has crossed.
    ///
    /// Called at every kernel entry and step. The conservative executor always
    /// resumes the minimum-(time, pid) runnable process, so the identity
    /// of the first process to cross an epoch — and therefore the cache
    /// state the flusher sees — is a pure function of virtual time:
    /// bit-identical across backends and worker counts.
    ///
    /// The daemon's cost lands on the *disk* timelines, not on the
    /// innocent crossing process: each writeback occupies its disk's
    /// FCFS queue starting at the epoch instant, so foreground I/O
    /// issued afterwards waits behind it. That queueing delay is the
    /// side effect WBD observes.
    #[inline(always)]
    fn poll_epochs(&mut self, now: Nanos) {
        if self.next_flush <= now {
            self.run_flusher(now);
        }
    }

    /// The flusher epochs up to `now`; almost no kernel entry gets here.
    #[cold]
    fn run_flusher(&mut self, now: Nanos) {
        let interval = self.cfg.writeback.expect("epochs fire only with a flusher");
        while self.next_flush <= now {
            let epoch = self.next_flush;
            self.next_flush += interval;
            self.stats.flusher_runs += 1;
            let dirty = self.cache.dirty_pages();
            if dirty.is_empty() {
                // Nothing dirty, and nothing changes between the epochs
                // inside one poll: fast-forward past the remaining no-ops.
                if self.next_flush <= now {
                    let behind =
                        (now.as_nanos() - self.next_flush.as_nanos()) / interval.as_nanos() + 1;
                    self.stats.flusher_runs += behind;
                    self.next_flush += GrayDuration::from_nanos(behind * interval.as_nanos());
                }
                continue;
            }
            let mut budget = FLUSH_PAGES_PER_EPOCH;
            for id in dirty {
                if budget == 0 {
                    break;
                }
                let Owner::File { dev, ino } = id.owner else {
                    continue; // Anonymous pages belong to the swap path.
                };
                let dev = dev as usize;
                if let Some(block) = self.home_block(dev, ino, id.page) {
                    // On the disk's own timeline; the return (completion
                    // instant) is deliberately charged to no process.
                    self.disks[dev].transfer(epoch, block, 1);
                    self.stats.file_page_writes += 1;
                    self.stats.flusher_pages += 1;
                }
                self.cache.clean(id);
                budget -= 1;
            }
        }
    }

    /// Charges the metadata I/O a file-system operation performed, then
    /// hands the emptied log back to the file system for the next one.
    fn charge_meta(&mut self, pid: usize, now: &mut Nanos, dev: usize) -> OsResult<()> {
        let io = self.fss[dev].take_io();
        let mut charge = || {
            for r in &io.reads {
                let id = PageId::file(dev, r.ino, r.page);
                if self.cache.lookup_touch(id) {
                    self.cpu(pid, now, None, COSTS.page_lookup);
                } else {
                    self.disk_io(pid, now, dev, r.disk_block, 1);
                    let ev = self.cache.insert(id, false);
                    self.handle_evictions(pid, now, ev)?;
                    self.cpu(pid, now, None, COSTS.page_lookup);
                }
            }
            for w in &io.writes {
                let ev = self.cache.insert(PageId::file(dev, w.ino, w.page), true);
                self.handle_evictions(pid, now, ev)?;
                self.cpu(pid, now, None, COSTS.page_lookup);
            }
            Ok(())
        };
        let charged = charge();
        self.fss[dev].return_io(io);
        charged
    }

    // --- Mount resolution ---------------------------------------------------

    /// Splits a path into `(disk index, fs-local path)`, the latter a
    /// slice of `path`.
    fn mount_of<'p>(&self, path: &'p str) -> OsResult<(usize, &'p str)> {
        if !path.starts_with('/') {
            return Err(OsError::InvalidArgument);
        }
        let Some(rest) = path.strip_prefix("/d").filter(|_| self.disks.len() > 1) else {
            return Ok((0, path));
        };
        let after = rest.trim_start_matches(|c: char| c.is_ascii_digit());
        let digits = &rest[..rest.len() - after.len()];
        if digits.is_empty() || !(after.is_empty() || after.starts_with('/')) {
            return Ok((0, path));
        }
        let idx: usize = digits.parse().map_err(|_| OsError::InvalidArgument)?;
        if idx == 0 || idx >= self.disks.len() {
            return Err(OsError::NotFound);
        }
        Ok((idx, if after.is_empty() { "/" } else { after }))
    }

    /// The namespace path every path syscall takes: resolve the mount,
    /// run `op` on that file system at `now`, then charge the metadata
    /// I/O `op` did, whether or not it succeeded (a failed lookup still
    /// read the directories it walked). Returns the device beside `op`'s
    /// value.
    fn namespace<T>(
        &mut self,
        pid: usize,
        now: &mut Nanos,
        path: &str,
        op: impl FnOnce(&mut Fs, &str, Nanos) -> OsResult<T>,
    ) -> OsResult<(usize, T)> {
        let (dev, local) = self.mount_of(path)?;
        let r = op(&mut self.fss[dev], local, *now);
        self.charge_meta(pid, now, dev)?;
        Ok((dev, r?))
    }

    /// The open file `fd` names and its inode: `NotFound` once the file
    /// is gone, even if its i-number names a newer one.
    fn open_file(&self, pid: usize, fd: Fd) -> OsResult<(OpenFile, &Inode)> {
        let of = *self.fdt[pid].get(&fd.0).ok_or(OsError::BadFd)?;
        let inode = self.fss[of.dev].inode(of.ino);
        let inode = inode.filter(|i| i.generation == of.generation);
        Ok((of, inode.ok_or(OsError::NotFound)?))
    }

    // --- Syscalls -------------------------------------------------------------

    /// The way into the kernel, and the one shape of every syscall: open
    /// the profiler's op frame `op`, copy the caller's clock into a local,
    /// fire the flusher epochs it has crossed, run `body` on the local,
    /// and commit it once, through `set_time` (so [`Kernel::max_time`]
    /// moves once per entry). Nothing reads the process's clock in
    /// between. Anything a syscall rejects before this point charges
    /// nothing and records nothing.
    #[inline]
    fn enter<R>(
        &mut self,
        pid: usize,
        op: &'static str,
        body: impl FnOnce(&mut Self, &mut Nanos) -> R,
    ) -> R {
        let mut now = self.procs[pid].now;
        let r = self.enter_on(op, &mut now, body);
        self.set_time(pid, now);
        r
    }

    /// [`Kernel::enter`] on a clock the caller already holds in a local,
    /// which the caller commits: an entry nested in a probe batch (a file
    /// probe's `sys_read`, a touch's page fault) keeps its op frame and
    /// its flusher poll.
    #[inline]
    fn enter_on<R>(
        &mut self,
        op: &'static str,
        now: &mut Nanos,
        body: impl FnOnce(&mut Self, &mut Nanos) -> R,
    ) -> R {
        let _op = profile::op_scope(op);
        self.poll_epochs(*now);
        body(self, now)
    }

    // --- Steps: the work a probe batch repeats ------------------------------
    //
    // A step is the work of one of the two cheapest syscalls, `sys_now`
    // and `sys_mem_touch_write`: a flusher poll, then the work, on the
    // entry's local clock. The syscall runs its step once, in its own op
    // frame (`op` is `None`). A probe batch runs two or three steps per
    // probe in the batch's entry, with no frame of their own, so it passes
    // the syscall's name as `op`: the step files its CPU charges under it
    // and opens it as the frame of a page fault, the one part of a step
    // that enters the kernel (nested, on the batch's clock).

    /// The clock-read step: the read's cost, then the quantized reading.
    #[inline(always)]
    fn step_now(&mut self, pid: usize, now: &mut Nanos, op: Option<&'static str>) -> Nanos {
        self.poll_epochs(*now);
        self.cpu(pid, now, op, TIMER_READ);
        self.noise.quantize(*now)
    }

    /// The write-touch step, given the region's size in pages (`None` if
    /// it is not live): a resident page is marked dirty and charged here;
    /// any other page faults.
    #[inline(always)]
    fn step_touch_write(
        &mut self,
        pid: usize,
        now: &mut Nanos,
        op: Option<&'static str>,
        region: u64,
        size: Option<u64>,
        page: u64,
    ) -> OsResult<()> {
        self.poll_epochs(*now);
        if page >= size.ok_or(OsError::BadRegion)? {
            return Err(OsError::InvalidArgument);
        }
        let id = PageId {
            owner: Owner::Anon { region },
            page,
        };
        if self.cache.mark_dirty(id) {
            self.cpu(pid, now, op, COSTS.mem_touch);
            return Ok(());
        }
        // In a batch the fault's poll is at the step's instant, so it
        // fires nothing.
        match op {
            Some(op) => self.enter_on(op, now, |k, now| k.fault_write(pid, now, region, page)),
            None => self.fault_write(pid, now, region, page),
        }
    }

    /// The high-resolution clock, with read cost and quantization. The
    /// reading is also the stamp of the process's next trace records.
    #[inline]
    pub fn sys_now(&mut self, pid: usize) -> Nanos {
        let reading = self.enter(pid, "sys_now", |k, now| k.step_now(pid, now, None));
        trace::set_now(reading);
        reading
    }

    /// Opens an existing file.
    pub fn sys_open(&mut self, pid: usize, path: &str) -> OsResult<Fd> {
        self.enter(pid, "sys_open", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            let (dev, ino) = k.namespace(pid, now, path, |fs, local, _| fs.resolve(local))?;
            if k.fss[dev].inode(ino).is_some_and(Inode::is_dir) {
                return Err(OsError::IsADirectory);
            }
            Ok(k.alloc_fd(pid, dev, ino))
        })
    }

    /// Creates and opens a new file.
    pub fn sys_create(&mut self, pid: usize, path: &str) -> OsResult<Fd> {
        self.enter(pid, "sys_create", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            let (dev, ino) = k.namespace(pid, now, path, |fs, local, t| fs.create(local, t))?;
            Ok(k.alloc_fd(pid, dev, ino))
        })
    }

    fn alloc_fd(&mut self, pid: usize, dev: usize, ino: Ino) -> Fd {
        let fd = self.next_fd[pid];
        self.next_fd[pid] += 1;
        self.fdt[pid].insert(
            fd,
            OpenFile {
                dev,
                ino,
                generation: self.fss[dev].inode(ino).expect("just resolved").generation,
                next_seq_page: 0,
                ra_window: RA_INITIAL,
            },
        );
        Fd(fd)
    }

    /// Closes a descriptor.
    pub fn sys_close(&mut self, pid: usize, fd: Fd) -> OsResult<()> {
        self.enter(pid, "sys_close", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            k.fdt[pid].remove(&fd.0).map(|_| ()).ok_or(OsError::BadFd)
        })
    }

    /// `pread`-style read. When `buf` is `None`, behaves identically
    /// (including cache effects and CPU copy charges) but discards data.
    pub fn sys_read(
        &mut self,
        pid: usize,
        fd: Fd,
        offset: u64,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> OsResult<u64> {
        self.enter(pid, "sys_read", |k, now| {
            k.read(pid, now, fd, offset, len, buf)
        })
    }

    /// The body of [`Kernel::sys_read`], on the entry's clock `now`; a
    /// file probe runs it in a nested entry.
    fn read(
        &mut self,
        pid: usize,
        now: &mut Nanos,
        fd: Fd,
        offset: u64,
        len: u64,
        mut buf: Option<&mut [u8]>,
    ) -> OsResult<u64> {
        self.cpu(pid, now, None, COSTS.syscall);
        let (of, inode) = self.open_file(pid, fd)?;
        let size = inode.size;
        if offset >= size || len == 0 {
            return Ok(0);
        }
        let len = len.min(size - offset);
        let first_page = offset / PAGE_SIZE;
        let last_page = (offset + len - 1) / PAGE_SIZE;

        // Sequential-read detection feeds the readahead window.
        let mut window = if first_page == of.next_seq_page {
            (u64::from(of.ra_window) * 2).min(self.cfg.readahead_pages)
        } else {
            u64::from(RA_INITIAL)
        };

        let file_pages = size.div_ceil(PAGE_SIZE);
        let mut cpu = GrayDuration::ZERO;
        let mut page = first_page;
        // Pages below `run_end` were fetched by this call's own readahead:
        // consuming them is part of the same logical access, so they are
        // *not* re-referenced (otherwise a single sequential scan would
        // mark everything referenced and scan-resistant policies could
        // never tell streams from reuse). Genuine hits bump the LRU
        // position.
        let mut run_end = first_page;
        while page <= last_page {
            if page < run_end || self.cache.lookup_touch(PageId::file(of.dev, of.ino, page)) {
                self.stats.cache_hits += 1;
                cpu += COSTS.page_lookup;
            } else {
                self.stats.cache_misses += 1;
                // Fetch a readahead run: contiguous on disk, not cached,
                // within the file and the window.
                let run = self.plan_fetch_run(of.dev, of.ino, page, file_pages, window);
                let start_block = self.fss[of.dev].ensure_block(of.ino, page)?;
                // Metadata I/O from block mapping (indirect blocks are
                // folded into the inode cost model).
                self.fss[of.dev].discard_io();
                self.disk_io(pid, now, of.dev, start_block, run);
                for p in page..page + run {
                    let ev = self.cache.insert(PageId::file(of.dev, of.ino, p), false);
                    self.handle_evictions(pid, now, ev)?;
                }
                self.stats.file_page_reads += run;
                run_end = page + run;
                window = (window * 2).min(self.cfg.readahead_pages);
                cpu += COSTS.page_lookup;
            }
            // Copy the requested fraction of this page to the user.
            let page_start = page * PAGE_SIZE;
            let copy_from = offset.max(page_start);
            let copy_to = (offset + len).min(page_start + PAGE_SIZE);
            let bytes = copy_to - copy_from;
            cpu += copy_charge(bytes);
            if let Some(out) = buf.as_deref_mut() {
                if let Some(disk_block) = self.fss[of.dev].block_of(of.ino, page) {
                    let dst_start = (copy_from - offset) as usize;
                    let dst = &mut out[dst_start..dst_start + bytes as usize];
                    self.fss[of.dev].read_content(disk_block, copy_from - page_start, dst);
                }
            }
            page += 1;
        }
        self.cpu(pid, now, None, cpu);
        self.fss[of.dev].note_read(of.ino, *now)?;
        // Update sequential state.
        let entry = self.fdt[pid].get_mut(&fd.0).expect("checked above");
        entry.ra_window = u32::try_from(window).unwrap_or(u32::MAX);
        entry.next_seq_page = last_page + 1;
        Ok(len)
    }

    /// Services a whole batch of timed 1-byte read probes in one kernel
    /// entry.
    ///
    /// Each probe is a clock-read step, a nested 1-byte `sys_read`, and a
    /// clock-read step — the scalar `sys_now` / `sys_read` / `sys_now`
    /// sequence, so the charged costs, the flusher polls, the
    /// noise/quantization stream, the readahead state machine, the cache
    /// side effects and the profile are bit-identical to a loop of
    /// individually dispatched probes. What the batch elides is host
    /// work: the caller borrows the kernel (and holds the scheduler baton)
    /// once for the whole batch, and each clock read is a step on the
    /// batch's clock, with no op frame of its own. Each probe is traced as
    /// a `ProbeIssued` event stamped at its second clock read.
    pub fn sys_probe_batch(&mut self, pid: usize, fd: Fd, specs: &[ProbeSpec]) -> Vec<ProbeSample> {
        let offsets = specs.iter().map(|s| s.offset);
        self.timed_batch(pid, "sys_probe_batch", offsets, true, |k, now, offset| {
            let read = k.enter_on("sys_read", now, |k, now| {
                k.read(pid, now, fd, offset, 1, None)
            });
            matches!(read, Ok(n) if n > 0)
        })
    }

    /// Services a batch of timed page write-touches in one kernel entry —
    /// the memory-side sibling of [`Kernel::sys_probe_batch`]: each probe
    /// is a clock-read step, a write-touch step and a clock-read step,
    /// the scalar `sys_now` / `sys_mem_touch_write` / `sys_now` sequence
    /// (the sample's `offset` carries the page index). Not traced. The
    /// region's size is looked up once for the batch: nothing inside one
    /// kernel entry frees a region.
    pub fn sys_mem_probe_batch(
        &mut self,
        pid: usize,
        region: u64,
        pages: &[u64],
    ) -> Vec<ProbeSample> {
        let size = self.vm.size(region);
        let pages = pages.iter().copied();
        let op = Some("sys_mem_touch_write");
        self.timed_batch(pid, "sys_mem_probe_batch", pages, false, |k, now, page| {
            k.step_touch_write(pid, now, op, region, size, page).is_ok()
        })
    }

    /// The timed loop both probe batches share, one kernel entry: for each
    /// offset a clock-read step, `probe` (which reports success), and a
    /// clock-read step, all on the entry's clock. With `traced`, each
    /// probe emits a `ProbeIssued` event stamped at its second reading;
    /// the last reading stamps the process's next records. An empty batch
    /// enters nothing.
    fn timed_batch(
        &mut self,
        pid: usize,
        op: &'static str,
        offsets: impl ExactSizeIterator<Item = u64>,
        traced: bool,
        mut probe: impl FnMut(&mut Self, &mut Nanos, u64) -> bool,
    ) -> Vec<ProbeSample> {
        if offsets.len() == 0 {
            return Vec::new();
        }
        self.enter(pid, op, |k, now| {
            let mut reading = Nanos::ZERO;
            let samples = offsets
                .map(|offset| {
                    let t0 = k.step_now(pid, now, Some("sys_now"));
                    let ok = probe(k, now, offset);
                    reading = k.step_now(pid, now, Some("sys_now"));
                    let elapsed = reading.since(t0);
                    if traced {
                        trace::set_now(reading);
                        trace::emit_with(|| trace::TraceEvent::ProbeIssued {
                            offset,
                            latency_ns: elapsed.as_nanos(),
                        });
                    }
                    ProbeSample {
                        offset,
                        elapsed,
                        ok,
                    }
                })
                .collect();
            trace::set_now(reading);
            samples
        })
    }

    /// Longest run of pages starting at `page` that is contiguous on disk,
    /// uncached, within the file, and at most `window` long.
    fn plan_fetch_run(&self, dev: usize, ino: Ino, page: u64, file_pages: u64, window: u64) -> u64 {
        let blocks = self.fss[dev].inode(ino).map_or(&[][..], |i| &i.blocks);
        let Some(&first) = blocks.get(page as usize) else {
            return 1;
        };
        let mut run = 1u64;
        while run < window && page + run < file_pages {
            if self.cache.contains(PageId::file(dev, ino, page + run)) {
                break;
            }
            match blocks.get((page + run) as usize) {
                Some(&b) if b == first + run => run += 1,
                _ => break,
            }
        }
        run
    }

    /// `pwrite`-style write; `data` of `None` means "fill with synthetic
    /// bytes" (bulk data that costs no host memory).
    pub fn sys_write(
        &mut self,
        pid: usize,
        fd: Fd,
        offset: u64,
        len: u64,
        data: Option<&[u8]>,
    ) -> OsResult<u64> {
        if let Some(d) = data {
            debug_assert_eq!(d.len() as u64, len);
        }
        self.enter(pid, "sys_write", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            // An empty write pays the crossing and does nothing else.
            if len == 0 {
                return Ok(0);
            }
            let (of, _) = k.open_file(pid, fd)?;
            let first_page = offset / PAGE_SIZE;
            let last_page = (offset + len - 1) / PAGE_SIZE;
            let mut cpu = GrayDuration::ZERO;
            for page in first_page..=last_page {
                let fs = &mut k.fss[of.dev];
                let r = if fs.layout() == crate::config::LayoutPolicy::Lfs
                    && fs.block_of(of.ino, page).is_some()
                {
                    // LFS: overwrites append at the log head.
                    fs.relocate_block(of.ino, page)
                } else {
                    fs.ensure_block(of.ino, page)
                };
                k.charge_meta(pid, now, of.dev)?;
                let disk_block = r?;
                let page_start = page * PAGE_SIZE;
                let copy_from = offset.max(page_start);
                let copy_to = (offset + len).min(page_start + PAGE_SIZE);
                let bytes = copy_to - copy_from;
                // A partial overwrite of an uncached page must read it first
                // (read-modify-write). A whole page is not looked up: the
                // insert below touches it if it is resident, as the lookup
                // would have, so it is probed once.
                let id = PageId::file(of.dev, of.ino, page);
                let whole_page = bytes == PAGE_SIZE;
                if !whole_page && !k.cache.lookup_touch(id) {
                    let within_old_size =
                        page_start < k.fss[of.dev].inode(of.ino).map(|i| i.size).unwrap_or(0);
                    if within_old_size {
                        k.disk_io(pid, now, of.dev, disk_block, 1);
                        k.stats.file_page_reads += 1;
                    }
                }
                let ev = k.cache.insert(id, true);
                k.handle_evictions(pid, now, ev)?;
                match data {
                    Some(d) => {
                        let src_start = (copy_from - offset) as usize;
                        let src = &d[src_start..src_start + bytes as usize];
                        k.fss[of.dev].write_content(disk_block, copy_from - page_start, src);
                    }
                    None => {
                        k.fss[of.dev].fill_content(disk_block);
                    }
                }
                cpu += copy_charge(bytes);
            }
            k.cpu(pid, now, None, cpu);
            k.fss[of.dev].note_write(of.ino, offset + len, *now)?;
            k.charge_meta(pid, now, of.dev)?;
            Ok(len)
        })
    }

    /// Size of an open file.
    pub fn sys_file_size(&mut self, pid: usize, fd: Fd) -> OsResult<u64> {
        self.enter(pid, "sys_file_size", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            Ok(k.open_file(pid, fd)?.1.size)
        })
    }

    /// Writes back every dirty page (`sync(2)`), charged to the caller.
    pub fn sys_sync(&mut self, pid: usize) -> OsResult<()> {
        self.enter(pid, "sys_sync", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            for id in k.cache.dirty_pages() {
                // sync(2) does not touch anonymous memory.
                let Owner::File { dev, ino } = id.owner else {
                    continue;
                };
                let dev = dev as usize;
                if let Some(block) = k.home_block(dev, ino, id.page) {
                    k.disk_io(pid, now, dev, block, 1);
                    k.stats.file_page_writes += 1;
                }
                k.cache.clean(id);
            }
            Ok(())
        })
    }

    /// `stat(2)`.
    pub fn sys_stat(&mut self, pid: usize, path: &str) -> OsResult<Stat> {
        self.enter(pid, "sys_stat", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            let (dev, ino) = k.namespace(pid, now, path, |fs, local, _| fs.resolve(local))?;
            let inode = k.fss[dev].inode(ino).ok_or(OsError::NotFound)?;
            Ok(Stat {
                ino,
                dev: dev as u64,
                size: inode.size,
                is_dir: inode.is_dir(),
                atime: inode.atime,
                mtime: inode.mtime,
            })
        })
    }

    /// Lists a directory in creation order.
    pub fn sys_list_dir(&mut self, pid: usize, path: &str) -> OsResult<Vec<String>> {
        self.enter(pid, "sys_list_dir", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            let (_, names) = k.namespace(pid, now, path, |fs, local, _| fs.list_dir(local))?;
            Ok(names)
        })
    }

    /// Creates a directory.
    pub fn sys_mkdir(&mut self, pid: usize, path: &str) -> OsResult<()> {
        self.enter(pid, "sys_mkdir", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            k.namespace(pid, now, path, |fs, local, t| fs.mkdir(local, t))?;
            Ok(())
        })
    }

    /// Removes an empty directory.
    pub fn sys_rmdir(&mut self, pid: usize, path: &str) -> OsResult<()> {
        self.enter(pid, "sys_rmdir", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            let (dev, ino) = k.namespace(pid, now, path, |fs, local, t| fs.rmdir(local, t))?;
            k.purge_file_pages(dev, ino);
            Ok(())
        })
    }

    /// Unlinks a file.
    pub fn sys_unlink(&mut self, pid: usize, path: &str) -> OsResult<()> {
        self.enter(pid, "sys_unlink", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            let (dev, ino) = k.namespace(pid, now, path, |fs, local, t| fs.unlink(local, t))?;
            k.purge_file_pages(dev, ino);
            Ok(())
        })
    }

    fn purge_file_pages(&mut self, dev: usize, ino: Ino) {
        // Dropped pages of a deleted file are never written back.
        self.cache.remove_owner(Owner::File {
            dev: dev as u32,
            ino,
        });
    }

    /// Renames within one file system.
    pub fn sys_rename(&mut self, pid: usize, from: &str, to: &str) -> OsResult<()> {
        self.enter(pid, "sys_rename", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            // Parsed once, up front; its error still comes after `from`'s.
            let to = k.mount_of(to);
            k.namespace(pid, now, from, |fs, from, t| {
                let (dev, to) = to?;
                if dev != fs.dev() as usize {
                    return Err(OsError::Unsupported);
                }
                fs.rename(from, to, t)
            })?;
            Ok(())
        })
    }

    /// Sets file times.
    pub fn sys_set_times(
        &mut self,
        pid: usize,
        path: &str,
        atime: Nanos,
        mtime: Nanos,
    ) -> OsResult<()> {
        self.enter(pid, "sys_set_times", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            k.namespace(pid, now, path, |fs, local, _| {
                fs.set_times(local, atime, mtime)
            })?;
            Ok(())
        })
    }

    /// Allocates an anonymous region (address space only). A zero-byte
    /// request is refused before it enters the kernel.
    pub fn sys_mem_alloc(&mut self, pid: usize, bytes: u64) -> OsResult<u64> {
        if bytes == 0 {
            return Err(OsError::InvalidArgument);
        }
        self.enter(pid, "sys_mem_alloc", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            Ok(k.vm.alloc(bytes.div_ceil(PAGE_SIZE)))
        })
    }

    /// Frees a region and purges its pages.
    pub fn sys_mem_free(&mut self, pid: usize, region: u64) -> OsResult<()> {
        self.enter(pid, "sys_mem_free", |k, now| {
            k.cpu(pid, now, None, COSTS.syscall);
            k.vm.free(region)?;
            k.cache.remove_owner(Owner::Anon { region });
            Ok(())
        })
    }

    /// Write-touches one page of a region.
    pub fn sys_mem_touch_write(&mut self, pid: usize, region: u64, page: u64) -> OsResult<()> {
        self.enter(pid, "sys_mem_touch_write", |k, now| {
            k.step_touch_write(pid, now, None, region, k.vm.size(region), page)
        })
    }

    /// The write-touch of a page that is not resident: a demand-zero fault
    /// or a swap-in, either of which may evict. Out of line, so the
    /// resident case of [`Kernel::step_touch_write`] is all a probe loop
    /// carries.
    #[inline(never)]
    fn fault_write(&mut self, pid: usize, now: &mut Nanos, region: u64, page: u64) -> OsResult<()> {
        let id = PageId {
            owner: Owner::Anon { region },
            page,
        };
        match self.vm.touch_for_write(region, page)? {
            TouchKind::Untouched => {
                self.stats.zero_faults += 1;
                let ev = self.cache.insert(id, true);
                self.handle_evictions(pid, now, ev)?;
                self.cpu(pid, now, None, COSTS.fault_overhead + COSTS.page_zero);
                Ok(())
            }
            kind => self.swap_in(pid, now, id, kind, true),
        }
    }

    /// Brings a touched page that is in neither the cache nor the zero
    /// page back from its swap slot: the read, the insert (`dirty` for a
    /// write-touch), the eviction it may force, then the fault and the
    /// touch.
    fn swap_in(
        &mut self,
        pid: usize,
        now: &mut Nanos,
        id: PageId,
        kind: TouchKind,
        dirty: bool,
    ) -> OsResult<()> {
        let TouchKind::Swapped(slot) = kind else {
            unreachable!("materialized page missing from cache and swap")
        };
        self.stats.swap_ins += 1;
        self.disk_io(pid, now, self.swap_disk, self.swap_base + slot, 1);
        let ev = self.cache.insert(id, dirty);
        self.handle_evictions(pid, now, ev)?;
        self.cpu(pid, now, None, COSTS.fault_overhead + COSTS.mem_touch);
        Ok(())
    }

    /// Read-touches one page of a region.
    pub fn sys_mem_touch_read(&mut self, pid: usize, region: u64, page: u64) -> OsResult<u8> {
        self.enter(pid, "sys_mem_touch_read", |k, now| {
            // Classified up front, in the one region lookup that checks
            // the page; used only if the page is not resident.
            let kind = k.vm.touch_kind(region, page)?;
            let id = PageId {
                owner: Owner::Anon { region },
                page,
            };
            // A resident page, or the copy-on-write zero page (reads
            // allocate nothing), costs a touch; any other comes from swap.
            if k.cache.lookup_touch(id) || matches!(kind, TouchKind::Untouched) {
                k.cpu(pid, now, None, COSTS.mem_touch);
            } else {
                k.swap_in(pid, now, id, kind, false)?;
            }
            Ok(0)
        })
    }

    /// Burns CPU time.
    pub fn sys_compute(&mut self, pid: usize, work: GrayDuration) {
        self.enter(pid, "sys_compute", |k, now| k.cpu(pid, now, None, work));
    }

    /// Advances the process clock without consuming CPU.
    pub fn sys_sleep(&mut self, pid: usize, d: GrayDuration) {
        self.enter(pid, "sys_sleep", |_, now| {
            *now += d;
            profile::charge(pid as u64, "sleep", d.as_nanos());
        });
    }

    // --- Experiment scaffolding (not part of the gray-box surface) --------

    /// Drops all file pages from the cache — the "flush the file cache"
    /// step between experimental runs. Dirty pages are written back for
    /// free (no time charged; this models a quiescent flush between runs).
    pub fn flush_file_cache(&mut self) {
        self.cache.drop_file_pages();
    }

    /// Direct access to cache state (oracle).
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// Direct access to a mounted file system (oracle).
    pub fn fs(&self, dev: usize) -> &Fs {
        &self.fss[dev]
    }

    /// Direct access to the VM (oracle).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Direct access to a disk (oracle).
    pub fn disk(&self, dev: usize) -> &Disk {
        &self.disks[dev]
    }

    /// Resolves a path for oracle use (mount + ino), without charging.
    pub fn oracle_resolve(&mut self, path: &str) -> OsResult<(usize, Ino)> {
        let (dev, local) = self.mount_of(path)?;
        let ino = self.fss[dev].resolve(local)?;
        self.fss[dev].discard_io();
        Ok((dev, ino))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn kernel() -> (Kernel, usize) {
        let mut k = Kernel::new(SimConfig::small().without_noise());
        let pid = k.add_proc(Nanos::ZERO);
        (k, pid)
    }

    /// The copy charge against the prorating it shortcuts, for every byte
    /// count a page copy can have.
    #[test]
    fn copy_charge_model_matches_the_prorated_page() {
        for bytes in 0..=PAGE_SIZE {
            let prorated = COSTS.copy_per_page.mul_f64(bytes as f64 / PAGE_SIZE as f64);
            assert_eq!(copy_charge(bytes), prorated, "{bytes} bytes");
        }
    }

    /// A probe batch commits its local clock with [`Kernel::max_time`] at
    /// its end, whichever path moved the clock last: after every batch —
    /// zero faults across flusher epochs, evictions to swap, swap-ins, a
    /// file batch, a freed region — the latest instant is the larger of
    /// the two process clocks, with a second process that sometimes leads.
    #[test]
    fn max_time_stays_exact_across_probe_batches() {
        use gray_toolbox::prop::{check, Gen};
        check(
            "max_time_stays_exact_across_probe_batches",
            16,
            |g: &mut Gen| {
                let mut cfg = SimConfig::small()
                    .with_seed(g.u64(1..u64::MAX))
                    .with_writeback(GrayDuration::from_micros(g.u64(100..400)));
                cfg.mem_bytes = 10 << 20; // 512 usable pages.
                cfg.cpus = g.usize(1..4) as u32;
                let mut k = Kernel::new(cfg);
                let prober = k.add_proc(Nanos::ZERO);
                let writer = k.add_proc(Nanos::ZERO);
                let wfd = k.sys_create(writer, "/churn").unwrap();
                k.sys_write(writer, wfd, 0, 256 << 10, None).unwrap();
                let pfd = k.sys_open(prober, "/churn").unwrap();
                let pages = k.cfg.usable_pages() + g.u64(16..64);
                let region = k.sys_mem_alloc(prober, pages * PAGE_SIZE).unwrap();
                let half: Vec<u64> = (0..256).collect();
                let all: Vec<u64> = (0..pages).collect();
                let mut revisit = g.vec(16..64, |g| g.u64(0..pages));
                revisit[0] = 0; // Evicted on the way past memory.
                let offsets = g.vec(4..32, |g| ProbeSpec {
                    offset: g.u64(0..(320 << 10)),
                });

                let batch = |k: &mut Kernel, g: &mut Gen, which: usize| {
                    match g.usize(0..3) {
                        0 => drop(k.sys_write(writer, wfd, g.u64(0..64) * PAGE_SIZE, 8192, None)),
                        1 => k.sys_sleep(writer, GrayDuration::from_micros(g.u64(0..3000))),
                        _ => {}
                    }
                    match which {
                        0 => drop(k.sys_mem_probe_batch(prober, region, &half)),
                        1 => drop(k.sys_mem_probe_batch(prober, region, &all)),
                        2 => drop(k.sys_probe_batch(prober, pfd, &offsets)),
                        _ => drop(k.sys_mem_probe_batch(prober, region, &revisit)),
                    }
                    let latest = k.proc_time(prober).max(k.proc_time(writer));
                    assert_eq!(k.max_time(), latest, "after batch {which}");
                };
                for which in 0..4 {
                    batch(&mut k, g, which);
                }
                k.sys_mem_free(prober, region).unwrap();
                batch(&mut k, g, 3);
                let stats = k.stats();
                assert!(
                    stats.zero_faults > 0 && stats.swap_outs > 0 && stats.swap_ins > 0,
                    "{stats:?}"
                );
                assert!(stats.flusher_runs > 0, "{stats:?}");
            },
        );
    }

    /// Every syscall commits its local clock with [`Kernel::max_time`]:
    /// after each of a random run of scalar calls by two processes —
    /// reads and writes that evict, syncs, read- and write-touches that
    /// zero-fault and swap in, sleeps across flusher epochs, compute
    /// bursts, clock reads and calls that fail — the latest instant is
    /// the larger of the two process clocks.
    #[test]
    fn max_time_stays_exact_after_every_syscall() {
        use gray_toolbox::prop::{check, Gen};
        check(
            "max_time_stays_exact_after_every_syscall",
            16,
            |g: &mut Gen| {
                let mut cfg = SimConfig::small()
                    .with_seed(g.u64(1..u64::MAX))
                    .with_writeback(GrayDuration::from_micros(g.u64(100..400)));
                cfg.mem_bytes = 10 << 20; // 512 usable pages.
                cfg.cpus = g.usize(1..4) as u32;
                let mut k = Kernel::new(cfg);
                let pids = [k.add_proc(Nanos::ZERO), k.add_proc(Nanos::ZERO)];
                let fds = [
                    k.sys_create(pids[0], "/f").unwrap(),
                    k.sys_open(pids[1], "/f").unwrap(),
                ];
                let pages = k.cfg.usable_pages() + g.u64(16..64);
                let region = k.sys_mem_alloc(pids[0], pages * PAGE_SIZE).unwrap();
                let exact = |k: &Kernel, what: &str| {
                    let latest = k.proc_time(pids[0]).max(k.proc_time(pids[1]));
                    assert_eq!(k.max_time(), latest, "after {what}");
                };
                // One pass past memory: every page zero-faults, and the first
                // ones go to swap, so later touches of them swap in.
                for page in 0..pages {
                    let pid = pids[g.usize(0..2)];
                    k.sys_mem_touch_write(pid, region, page).unwrap();
                    exact(&k, "a first write-touch");
                }
                for _ in 0..200 {
                    let who = g.usize(0..2);
                    let (pid, fd) = (pids[who], fds[who]);
                    let offset = g.u64(0..(256 << 10));
                    let len = g.u64(1..(32 << 10));
                    // Half the touches go to the first pages, the swapped ones.
                    let first = if g.bool() { 64 } else { pages };
                    let page = g.u64(0..first);
                    let us = GrayDuration::from_micros(g.u64(0..3000));
                    let call = g.usize(0..10);
                    match call {
                        0 => drop(k.sys_read(pid, fd, offset, len, None)),
                        1 => drop(k.sys_write(pid, fd, offset, len, None)),
                        2 => k.sys_sync(pid).unwrap(),
                        3 => drop(k.sys_mem_touch_read(pid, region, page).unwrap()),
                        4 => k.sys_mem_touch_write(pid, region, page).unwrap(),
                        5 => k.sys_sleep(pid, us),
                        6 => k.sys_compute(pid, us),
                        7 => drop(k.sys_now(pid)),
                        8 => assert_eq!(k.sys_stat(pid, "/a").unwrap_err(), OsError::NotFound),
                        _ => assert!(k.sys_mem_touch_write(pid, region, pages).is_err()),
                    }
                    exact(&k, &format!("call {call}"));
                }
                let stats = k.stats();
                assert!(
                    stats.zero_faults > 0 && stats.swap_outs > 0 && stats.swap_ins > 0,
                    "{stats:?}"
                );
                assert!(
                    stats.flusher_runs > 0 && stats.file_page_reads > 0,
                    "{stats:?}"
                );
            },
        );
    }

    /// A probe batch over a region that was freed, or never allocated,
    /// and past the end of a live one: every probe fails, and each still
    /// pays both of its clock reads and nothing else.
    #[test]
    fn a_probe_batch_outside_any_region_fails_and_pays_its_clock_reads() {
        let (mut k, pid) = kernel();
        let freed = k.sys_mem_alloc(pid, 4 * PAGE_SIZE).unwrap();
        k.sys_mem_touch_write(pid, freed, 0).unwrap();
        k.sys_mem_free(pid, freed).unwrap();
        let live = k.sys_mem_alloc(pid, 4 * PAGE_SIZE).unwrap();
        for (region, pages) in [
            (freed, [0, 1, 3]),
            (live + 1, [0, 1, 3]),
            (live, [4, 5, 99]),
        ] {
            let before = k.proc_time(pid);
            let probes = k.sys_mem_probe_batch(pid, region, &pages);
            let got: Vec<_> = probes.iter().map(|s| (s.offset, s.ok, s.elapsed)).collect();
            let want = pages.map(|page| (page, false, TIMER_READ));
            assert_eq!(got, want, "region {region}");
            let spent = k.proc_time(pid).since(before);
            assert_eq!(spent, TIMER_READ * 6, "region {region}");
        }
    }

    #[test]
    fn create_write_read_round_trip() {
        let (mut k, pid) = kernel();
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, 5, Some(b"hello")).unwrap();
        let mut buf = [0u8; 5];
        let n = k.sys_read(pid, fd, 0, 5, Some(&mut buf)).unwrap();
        assert_eq!(n, 5);
        assert_eq!(&buf, b"hello");
        assert_eq!(k.sys_file_size(pid, fd).unwrap(), 5);
    }

    #[test]
    fn cached_read_is_microseconds_uncached_is_milliseconds() {
        let (mut k, pid) = kernel();
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, 8192, None).unwrap();
        k.flush_file_cache();
        let t0 = k.proc_time(pid);
        k.sys_read(pid, fd, 0, 1, None).unwrap();
        let cold = k.proc_time(pid).since(t0);
        let t1 = k.proc_time(pid);
        k.sys_read(pid, fd, 1, 1, None).unwrap();
        let warm = k.proc_time(pid).since(t1);
        assert!(
            cold > GrayDuration::from_millis(1),
            "cold 1-byte read {cold}"
        );
        assert!(
            warm < GrayDuration::from_micros(20),
            "warm 1-byte read {warm}"
        );
    }

    #[test]
    fn sequential_scan_approaches_disk_bandwidth() {
        let (mut k, pid) = kernel();
        let mb = 16u64 << 20;
        let fd = k.sys_create(pid, "/big").unwrap();
        let mut off = 0;
        while off < mb {
            k.sys_write(pid, fd, off, 1 << 20, None).unwrap();
            off += 1 << 20;
        }
        k.flush_file_cache();
        let t0 = k.proc_time(pid);
        let mut off = 0;
        while off < mb {
            k.sys_read(pid, fd, off, 1 << 20, None).unwrap();
            off += 1 << 20;
        }
        let elapsed = k.proc_time(pid).since(t0).as_secs_f64();
        let rate = mb as f64 / elapsed / (1 << 20) as f64;
        // 20 MB/s media rate; allow head-positioning and copy overheads.
        assert!(
            (10.0..=20.5).contains(&rate),
            "sequential rate {rate:.1} MB/s"
        );
    }

    #[test]
    fn warm_rescan_is_memory_speed() {
        let (mut k, pid) = kernel();
        let mb = 4u64 << 20;
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, mb, None).unwrap();
        // First scan warms (writes already did); second is all hits.
        let t0 = k.proc_time(pid);
        k.sys_read(pid, fd, 0, mb, None).unwrap();
        let warm = k.proc_time(pid).since(t0).as_secs_f64();
        let rate_mb = mb as f64 / warm / (1 << 20) as f64;
        assert!(rate_mb > 200.0, "warm rate {rate_mb:.0} MB/s");
    }

    #[test]
    fn memory_pressure_triggers_swap_and_slow_touches() {
        let (mut k, pid) = kernel();
        let pages = k.config().usable_pages();
        let region = k.sys_mem_alloc(pid, (pages + 100) * 4096).unwrap();
        // Touch more pages than exist: must swap.
        for p in 0..pages + 100 {
            k.sys_mem_touch_write(pid, region, p).unwrap();
        }
        assert!(k.stats().swap_outs > 0, "no swap-outs under overcommit");
        // Touch the first page again: it was evicted, so this is a swap-in.
        let t0 = k.proc_time(pid);
        k.sys_mem_touch_write(pid, region, 0).unwrap();
        let t = k.proc_time(pid).since(t0);
        assert!(t > GrayDuration::from_millis(1), "swap-in touch {t}");
    }

    #[test]
    fn within_memory_touches_stay_fast() {
        let (mut k, pid) = kernel();
        let region = k.sys_mem_alloc(pid, 1000 * 4096).unwrap();
        for p in 0..1000 {
            k.sys_mem_touch_write(pid, region, p).unwrap();
        }
        let t0 = k.proc_time(pid);
        for p in 0..1000 {
            k.sys_mem_touch_write(pid, region, p).unwrap();
        }
        let per_touch = k.proc_time(pid).since(t0) / 1000;
        assert!(
            per_touch < GrayDuration::from_micros(2),
            "resident touch {per_touch}"
        );
        assert_eq!(k.stats().swap_outs, 0);
    }

    #[test]
    fn cow_read_allocates_nothing() {
        let (mut k, pid) = kernel();
        let region = k.sys_mem_alloc(pid, 100 * 4096).unwrap();
        let before = k.cache().resident_pages();
        for p in 0..100 {
            k.sys_mem_touch_read(pid, region, p).unwrap();
        }
        assert_eq!(k.cache().resident_pages(), before);
    }

    #[test]
    fn mem_free_releases_and_invalidates() {
        let (mut k, pid) = kernel();
        let region = k.sys_mem_alloc(pid, 10 * 4096).unwrap();
        for p in 0..10 {
            k.sys_mem_touch_write(pid, region, p).unwrap();
        }
        k.sys_mem_free(pid, region).unwrap();
        assert_eq!(
            k.sys_mem_touch_write(pid, region, 0),
            Err(OsError::BadRegion)
        );
    }

    #[test]
    fn stat_reports_ino_and_times() {
        let (mut k, pid) = kernel();
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, 100, None).unwrap();
        let st = k.sys_stat(pid, "/f").unwrap();
        assert_eq!(st.size, 100);
        assert!(!st.is_dir);
        assert!(st.ino > 2);
    }

    #[test]
    fn second_mount_is_a_separate_tree() {
        let (mut k, pid) = kernel();
        k.sys_mkdir(pid, "/d1/dir").unwrap();
        let fd = k.sys_create(pid, "/d1/dir/f").unwrap();
        k.sys_write(pid, fd, 0, 4, Some(b"dat!")).unwrap();
        assert!(k.sys_stat(pid, "/dir").is_err());
        let st = k.sys_stat(pid, "/d1/dir/f").unwrap();
        assert_eq!(st.dev, 1);
    }

    #[test]
    fn bad_mount_is_not_found() {
        let (mut k, pid) = kernel();
        assert_eq!(k.sys_stat(pid, "/d7/x"), Err(OsError::NotFound));
    }

    #[test]
    fn rename_across_mounts_is_unsupported() {
        let (mut k, pid) = kernel();
        k.sys_create(pid, "/f").unwrap();
        assert_eq!(k.sys_rename(pid, "/f", "/d1/f"), Err(OsError::Unsupported));
    }

    #[test]
    fn a_descriptor_does_not_outlive_its_file() {
        let (mut k, pid) = kernel();
        let a = k.sys_create(pid, "/a").unwrap();
        k.sys_write(pid, a, 0, 4, Some(b"AAAA")).unwrap();
        let ino = k.sys_stat(pid, "/a").unwrap().ino;
        k.sys_unlink(pid, "/a").unwrap();
        let b = k.sys_create(pid, "/b").unwrap();
        k.sys_write(pid, b, 0, 8, Some(b"BBBBBBBB")).unwrap();
        assert_eq!(
            k.sys_stat(pid, "/b").unwrap().ino,
            ino,
            "the i-number is reused"
        );
        // Through `a`, the new file is another file.
        let mut buf = [0u8; 8];
        let read = k.sys_read(pid, a, 0, 8, Some(&mut buf));
        assert_eq!((read, buf), (Err(OsError::NotFound), [0; 8]));
        assert_eq!(
            k.sys_write(pid, a, 0, 1, Some(b"A")),
            Err(OsError::NotFound)
        );
        assert_eq!(k.sys_file_size(pid, a), Err(OsError::NotFound));
        let probes = k.sys_probe_batch(pid, a, &[ProbeSpec { offset: 0 }]);
        assert!(!probes[0].ok, "a stale probe reads nothing");
        // Through `b`, it is intact.
        assert_eq!(k.sys_read(pid, b, 0, 8, Some(&mut buf)), Ok(8));
        assert_eq!(&buf, b"BBBBBBBB");
        assert_eq!(k.sys_close(pid, a), Ok(()));
    }

    #[test]
    fn a_rename_that_cannot_grow_its_target_changes_nothing() {
        let disks = vec![crate::config::DiskParams { capacity: 4 << 20 }; 2];
        let cfg = SimConfig {
            disks,
            ..SimConfig::small().without_noise()
        };
        let mut k = Kernel::new(cfg);
        let pid = k.add_proc(Nanos::ZERO);
        // `/d`'s 128 entries fill its one block.
        k.sys_mkdir(pid, "/d").unwrap();
        for i in 0..128 {
            let fd = k.sys_create(pid, &format!("/d/f{i}")).unwrap();
            k.sys_close(pid, fd).unwrap();
        }
        k.sys_create(pid, "/mover").unwrap();
        let fill = k.sys_create(pid, "/fill").unwrap();
        assert_eq!(
            k.sys_write(pid, fill, 0, 4 << 20, None),
            Err(OsError::NoSpace)
        );
        let listings = |k: &mut Kernel| {
            let root = k.sys_list_dir(pid, "/").unwrap();
            (
                root,
                k.sys_list_dir(pid, "/d").unwrap(),
                k.fs(0).free_bytes(),
            )
        };
        let before = listings(&mut k);
        assert_eq!(before.0, ["d", "mover", "fill"]);
        assert_eq!(
            k.sys_rename(pid, "/mover", "/d/mover"),
            Err(OsError::NoSpace)
        );
        assert_eq!(listings(&mut k), before);
        assert!(k.sys_stat(pid, "/mover").is_ok());
        // A rename within the full directory needs no block.
        k.sys_rename(pid, "/d/f0", "/d/g0").unwrap();
        assert_eq!(k.sys_list_dir(pid, "/d").unwrap().last().unwrap(), "g0");
    }

    #[test]
    fn read_discard_matches_read_semantics() {
        let (mut k, pid) = kernel();
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, 8192, None).unwrap();
        k.flush_file_cache();
        k.sys_read(pid, fd, 0, 8192, None).unwrap();
        // Both pages must now be cached.
        let (dev, ino) = k.oracle_resolve("/f").unwrap();
        let resident = k.cache().resident_of(Owner::File {
            dev: dev as u32,
            ino,
        });
        assert_eq!(resident, vec![0, 1]);
    }

    #[test]
    fn timer_reads_cost_time_and_quantize() {
        let mut k = Kernel::new(SimConfig::small());
        let pid = k.add_proc(Nanos::ZERO);
        let a = k.sys_now(pid);
        let b = k.sys_now(pid);
        assert!(b >= a);
    }

    #[test]
    fn partial_overwrite_of_cold_page_reads_it_first() {
        let (mut k, pid) = kernel();
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, 4096, None).unwrap();
        k.flush_file_cache();
        let reads_before = k.stats().file_page_reads;
        k.sys_write(pid, fd, 10, 4, Some(b"abcd")).unwrap();
        assert_eq!(
            k.stats().file_page_reads,
            reads_before + 1,
            "read-modify-write must fetch the cold page"
        );
    }

    #[test]
    fn mount_parsing_edge_cases() {
        let (k, _pid) = kernel(); // Two disks: "/" and "/d1".
        assert_eq!(k.mount_of("/plain").unwrap().0, 0);
        assert_eq!(k.mount_of("/d1").unwrap(), (1, "/"));
        assert_eq!(k.mount_of("/d1/x").unwrap(), (1, "/x"));
        // "/d1abc" is a root file, not a mount.
        assert_eq!(k.mount_of("/d1abc").unwrap().0, 0);
        // "/d0" and out-of-range indices are not mounts.
        assert_eq!(k.mount_of("/d0/x"), Err(OsError::NotFound));
        assert_eq!(k.mount_of("/d9/x"), Err(OsError::NotFound));
        assert_eq!(k.mount_of("relative"), Err(OsError::InvalidArgument));
    }

    #[test]
    fn file_descriptors_are_process_local() {
        let mut k = Kernel::new(SimConfig::small().without_noise());
        let p1 = k.add_proc(Nanos::ZERO);
        let p2 = k.add_proc(Nanos::ZERO);
        let fd = k.sys_create(p1, "/shared").unwrap();
        k.sys_write(p1, fd, 0, 3, Some(b"abc")).unwrap();
        // The raw fd number means nothing in another process.
        assert_eq!(k.sys_file_size(p2, fd), Err(OsError::BadFd));
        // And a finished process's descriptors are gone.
        k.finish_proc(p1);
        let p3 = k.add_proc(Nanos::ZERO);
        assert_eq!(k.sys_file_size(p3, fd), Err(OsError::BadFd));
    }

    #[test]
    fn eof_reads_return_zero() {
        let (mut k, pid) = kernel();
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, 10, None).unwrap();
        assert_eq!(k.sys_read(pid, fd, 10, 5, None).unwrap(), 0);
        assert_eq!(k.sys_read(pid, fd, 8, 100, None).unwrap(), 2);
    }

    fn flusher_kernel(interval_ms: u64) -> (Kernel, usize) {
        let cfg = SimConfig::small()
            .without_noise()
            .with_writeback(GrayDuration::from_millis(interval_ms));
        let mut k = Kernel::new(cfg);
        let pid = k.add_proc(Nanos::ZERO);
        (k, pid)
    }

    #[test]
    fn flusher_cleans_dirty_residue_across_epochs() {
        let (mut k, pid) = flusher_kernel(10);
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, 64 << 10, None).unwrap();
        assert!(
            !k.cache().dirty_pages().is_empty(),
            "writes must leave dirty pages"
        );
        k.sys_sleep(pid, GrayDuration::from_millis(25));
        k.sys_now(pid); // Entry crosses the epochs; the flusher fires.
        let stats = k.stats();
        assert!(stats.flusher_runs >= 1, "no flusher epoch fired");
        assert!(stats.flusher_pages >= 16, "flusher wrote {stats:?}");
        // Data pages are clean; at most freshly-dirtied metadata remains.
        let (dev, ino) = k.oracle_resolve("/f").unwrap();
        let owner = Owner::File {
            dev: dev as u32,
            ino,
        };
        assert!(
            k.cache().dirty_pages().iter().all(|id| id.owner != owner),
            "file data pages survived the flusher dirty"
        );
    }

    #[test]
    fn flusher_off_by_default_leaves_residue() {
        let (mut k, pid) = kernel();
        let fd = k.sys_create(pid, "/f").unwrap();
        k.sys_write(pid, fd, 0, 64 << 10, None).unwrap();
        k.sys_sleep(pid, GrayDuration::from_secs(5));
        k.sys_now(pid);
        assert_eq!(k.stats().flusher_runs, 0);
        assert!(
            !k.cache().dirty_pages().is_empty(),
            "residue must persist without a flusher"
        );
    }

    #[test]
    fn flusher_writeback_occupies_the_disk_timeline() {
        // Identical op sequences; the only difference is the flusher.
        // Its epoch writebacks occupy disk 0's FCFS queue, so the cold
        // foreground read issued just after the epoch waits behind them.
        let run = |writeback: bool| -> GrayDuration {
            let mut cfg = SimConfig::small().without_noise();
            if writeback {
                cfg = cfg.with_writeback(GrayDuration::from_millis(10));
            }
            let mut k = Kernel::new(cfg);
            let pid = k.add_proc(Nanos::ZERO);
            let fa = k.sys_create(pid, "/a").unwrap();
            let fb = k.sys_create(pid, "/b").unwrap();
            k.sys_write(pid, fa, 0, 256 << 10, None).unwrap();
            k.sys_write(pid, fb, 0, 64 << 10, None).unwrap();
            k.flush_file_cache(); // Quiescent point: everything clean+cold.
            k.sys_write(pid, fa, 0, 256 << 10, None).unwrap(); // Re-dirty.
            k.sys_sleep(pid, GrayDuration::from_millis(11));
            let t0 = k.proc_time(pid);
            k.sys_read(pid, fb, 0, 4096, None).unwrap(); // Cold read.
            k.proc_time(pid).since(t0)
        };
        let quiet = run(false);
        let contended = run(true);
        assert!(
            contended > quiet,
            "flusher contention missing: quiet {quiet} vs contended {contended}"
        );
    }

    #[test]
    fn flusher_epoch_bound_limits_pages_per_epoch() {
        let (mut k, pid) = flusher_kernel(10);
        let fd = k.sys_create(pid, "/f").unwrap();
        // Four epochs' worth of dirty data pages, written before the first
        // epoch at 10 ms.
        let bytes = 4 * FLUSH_PAGES_PER_EPOCH * PAGE_SIZE;
        k.sys_write(pid, fd, 0, bytes, None).unwrap();
        assert_eq!(k.stats().flusher_runs, 0);
        for epoch in 1..=3 {
            let dirty_before = k.cache().dirty_pages().len() as u64;
            let written_before = k.stats().flusher_pages;
            k.sys_sleep(pid, GrayDuration::from_millis(10));
            k.sys_now(pid); // Exactly one more epoch crossed.
            assert_eq!(k.stats().flusher_runs, epoch);
            let swept = dirty_before - k.cache().dirty_pages().len() as u64;
            let written = k.stats().flusher_pages - written_before;
            assert_eq!(
                swept, FLUSH_PAGES_PER_EPOCH,
                "epoch {epoch}: the bound, not the supply, ends the sweep"
            );
            assert!(
                written <= FLUSH_PAGES_PER_EPOCH,
                "epoch {epoch} wrote {written}"
            );
        }
        assert!(k.cache().dirty_pages().len() as u64 >= FLUSH_PAGES_PER_EPOCH);
    }
}
