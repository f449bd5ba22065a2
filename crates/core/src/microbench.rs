//! Configuration microbenchmarks (paper Sections 2.1 and 5).
//!
//! Gray-box ICLs need performance parameters of the underlying components —
//! expected disk seek time and bandwidth, the cost of allocating and zeroing
//! a page, of touching a resident page, of hitting or missing the file
//! cache — to amortize overheads and to differentiate states. This module
//! measures those parameters *through the gray-box interface itself* and
//! publishes them in the shared [`ParamRepository`], so each benchmark only
//! needs to run once per system.
//!
//! Per the paper's caution, these benchmarks "likely require a dedicated
//! system and may take some time to run": run them on an otherwise idle
//! machine, and give [`Microbench::disk_profile`] a scratch file larger
//! than the file cache (otherwise the "miss" numbers are really hits, which
//! the clustering will reveal as a suspiciously low separation).

use gray_toolbox::repository::keys;
use gray_toolbox::rng::StdRng;
use gray_toolbox::{split_fast_slow, GrayDuration, ParamRepository, Summary};

use crate::mac;
use crate::os::{Fd, GrayBoxOs, OsError, OsResult};

/// Observations per disk measurement.
pub const SAMPLES: usize = 64;

/// Seed of the random offsets the disk benchmarks read.
const SEED: u64 = 0xB16B00B5;

/// Measured memory-page costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCosts {
    /// Median time to write-touch a resident page.
    pub touch: GrayDuration,
    /// Median time to allocate and zero a fresh page (first touch).
    pub zero: GrayDuration,
}

/// Measured disk and file-cache costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskProfile {
    /// Median time for a random single-page read on a cold file
    /// (seek + rotation + transfer).
    pub random_page_read: GrayDuration,
    /// Sequential read bandwidth, bytes per second.
    pub sequential_bandwidth: u64,
    /// Median time to read a page that is resident in the file cache.
    pub page_hit: GrayDuration,
}

/// The microbenchmark suite.
pub struct Microbench<'a, O: GrayBoxOs> {
    os: &'a O,
}

impl<'a, O: GrayBoxOs> Microbench<'a, O> {
    /// Creates a suite; each disk measurement takes [`SAMPLES`]
    /// observations.
    pub fn new(os: &'a O) -> Self {
        Microbench { os }
    }

    /// Measures the cost of touching resident pages and of first-touch
    /// allocate-and-zero, with MAC's own calibration pass (the medians over
    /// [`crate::mac::CALIBRATION_PAGES`] pages, fewer on a machine too
    /// small to hold them, rounded down to whole nanoseconds).
    pub fn page_costs(&self) -> OsResult<PageCosts> {
        let (touch, zero) = mac::page_cost_medians(self.os)?;
        Ok(PageCosts {
            touch: GrayDuration::from_nanos(touch as u64),
            zero: GrayDuration::from_nanos(zero as u64),
        })
    }

    /// Profiles the disk and file cache using `path`, a scratch file this
    /// call creates with `file_bytes` bytes (ideally exceeding the file
    /// cache) and deletes afterwards.
    pub fn disk_profile(&self, path: &str, file_bytes: u64) -> OsResult<DiskProfile> {
        let page = self.os.page_size();
        if file_bytes < 4 * page {
            return Err(OsError::InvalidArgument);
        }
        let (bandwidth, times, hit_times) = self.on_scratch(path, file_bytes, |fd| {
            // Sequential bandwidth over the whole file (also evicts the
            // pages our own writes left cached, when the file exceeds the
            // cache).
            let t0 = self.os.now();
            self.os.read_discard(fd, 0, file_bytes)?;
            let seq = self.os.now().since(t0);
            let bandwidth = if seq == GrayDuration::ZERO {
                u64::MAX
            } else {
                (file_bytes as f64 / seq.as_secs_f64()) as u64
            };
            // Random single-page reads, then the same offsets again
            // immediately: guaranteed hits.
            let pages = file_bytes / page;
            let sweep = || -> OsResult<Vec<f64>> {
                let mut rng = StdRng::seed_from_u64(SEED);
                let mut times = Vec::with_capacity(SAMPLES);
                for _ in 0..SAMPLES {
                    let p = rng.random_range(0..pages);
                    let (res, t) = self.os.timed(|os| os.read_byte(fd, p * page));
                    res?;
                    times.push(t.as_nanos() as f64);
                }
                Ok(times)
            };
            let times = sweep()?;
            Ok((bandwidth, times, sweep()?))
        })?;

        // Cluster the first reads to split hits from misses. The slow
        // cluster holds the true misses; if the split is not trusted the
        // file fit in cache, everything reads as slow, and the median of
        // everything is our best guess.
        let split = split_fast_slow(&times);
        let slow: Vec<f64> = times
            .iter()
            .zip(&split.fast)
            .filter_map(|(&t, &fast)| (!fast).then_some(t))
            .collect();
        let miss = Summary::new(&slow).median();
        Ok(DiskProfile {
            random_page_read: GrayDuration::from_nanos(miss as u64),
            sequential_bandwidth: bandwidth,
            page_hit: GrayDuration::from_nanos(Summary::new(&hit_times).median() as u64),
        })
    }

    /// Finds the smallest access unit delivering at least 90% of peak
    /// sequential bandwidth when reading from random offsets (the paper's
    /// method for choosing FCCD's default 20 MB unit). `path` is a scratch
    /// file created and deleted by this call.
    pub fn access_unit(&self, path: &str, file_bytes: u64) -> OsResult<u64> {
        let candidates: Vec<u64> = (0..=7).map(|i| (1u64 << i) << 20).collect(); // 1..128 MB
        let usable: Vec<u64> = candidates
            .into_iter()
            .filter(|&c| c * 4 <= file_bytes)
            .collect();
        if usable.is_empty() {
            return Err(OsError::InvalidArgument);
        }
        let rates = self.on_scratch(path, file_bytes, |fd| {
            let mut rng = StdRng::seed_from_u64(SEED);
            let mut rates = Vec::with_capacity(usable.len());
            for &unit in &usable {
                let trials = 3u64;
                let mut total = GrayDuration::ZERO;
                for _ in 0..trials {
                    let max_start = file_bytes - unit;
                    let start = rng.random_range(0..=max_start);
                    let t0 = self.os.now();
                    self.os.read_discard(fd, start, unit)?;
                    total += self.os.now().since(t0);
                }
                let secs = total.as_secs_f64();
                let rate = if secs == 0.0 {
                    f64::INFINITY
                } else {
                    (unit * trials) as f64 / secs
                };
                rates.push(rate);
            }
            Ok(rates)
        })?;

        let peak = rates.iter().copied().fold(0.0f64, f64::max);
        let chosen = usable
            .iter()
            .zip(&rates)
            .find(|(_, &r)| r >= 0.9 * peak)
            .map(|(&u, _)| u)
            .unwrap_or(*usable.last().expect("non-empty"));
        Ok(chosen)
    }

    /// Creates `path` holding `file_bytes` of fill, synced to disk, runs
    /// `measure` on it, then closes and deletes it, whether or not
    /// `measure` or the fill succeeded.
    fn on_scratch<T>(
        &self,
        path: &str,
        file_bytes: u64,
        measure: impl FnOnce(Fd) -> OsResult<T>,
    ) -> OsResult<T> {
        let fd = self.os.create(path)?;
        let fill = || -> OsResult<()> {
            let mut off = 0u64;
            while off < file_bytes {
                let chunk = (file_bytes - off).min(8 << 20);
                self.os.write_fill(fd, off, chunk)?;
                off += chunk;
            }
            self.os.sync()
        };
        let measured = fill().and_then(|()| measure(fd));
        let closed = self.os.close(fd);
        let unlinked = self.os.unlink(path);
        let value = measured?;
        closed?;
        unlinked?;
        Ok(value)
    }

    /// Runs the full suite and publishes results into the repository under
    /// the well-known keys.
    pub fn run_all(
        &self,
        scratch_dir: &str,
        file_bytes: u64,
        repo: &mut ParamRepository,
    ) -> OsResult<()> {
        let page_costs = self.page_costs()?;
        repo.set_duration(keys::PAGE_TOUCH_NS, page_costs.touch);
        repo.set_duration(keys::PAGE_ALLOC_ZERO_NS, page_costs.zero);
        repo.set_raw(keys::PAGE_SIZE_BYTES, self.os.page_size());

        let scratch = format!("{}/gb_microbench.tmp", scratch_dir.trim_end_matches('/'));
        let disk = self.disk_profile(&scratch, file_bytes)?;
        repo.set_duration(keys::PAGE_UNCACHED_READ_NS, disk.random_page_read);
        repo.set_duration(keys::PAGE_CACHED_READ_NS, disk.page_hit);
        repo.set_raw(keys::DISK_BANDWIDTH_BPS, disk.sequential_bandwidth);
        // Seek is the random-read time minus the transfer of one page.
        let transfer = GrayDuration::from_secs_f64(
            self.os.page_size() as f64 / disk.sequential_bandwidth.max(1) as f64,
        );
        repo.set_duration(
            keys::DISK_SEEK_NS,
            disk.random_page_read.saturating_sub(transfer),
        );

        let unit = self.access_unit(&scratch, file_bytes)?;
        repo.set_raw(keys::ACCESS_UNIT_BYTES, unit);
        Ok(())
    }
}
