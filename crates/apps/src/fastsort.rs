//! `fastsort` — the highly tuned two-pass disk-to-disk sort (paper
//! Sections 4.1.3 and 4.3.3; after Agarwal's SIGMOD'96 super-scalar sort).
//!
//! Pass one reads runs of records (each run sized to fit in memory), sorts
//! them, and writes sorted runs to disk; pass two merges. The paper's
//! Figure 7 question is *how big should a run be?* — guess too high in a
//! multiprogrammed system and the machine thrashes; `gb-fastsort` instead
//! asks MAC for however much memory is actually available
//! (`gb_alloc(min, max, record)`), freeing it between passes so it can
//! never deadlock.
//!
//! Two operating modes:
//!
//! - [`FastSort::run_modelled`] moves synthetic bulk data and charges
//!   realistic CPU/memory costs — this is what the figure-scale
//!   experiments use (gigabytes of "data" at megabytes of host memory).
//!   Memory traffic is real in the sense that matters: every buffer page
//!   is write-touched as records land and re-touched during sorting (in
//!   batches of [`TOUCH_BATCH`] pages, each one scheduling point), so an
//!   oversized run genuinely thrashes the simulated VM.
//! - [`FastSort::run_real`] sorts actual bytes (any `GrayBoxOs` backend)
//!   with a k-way merge — used by tests and the host-backend example to
//!   prove the application logic is real.

use gray_toolbox::GrayDuration;
use graybox::mac::{Mac, MacParams, MacStats};
use graybox::os::{Fd, GrayBoxOs, OsError, OsResult};

/// Upper bound, in pages, on one `mem_probe_batch` issued by the modelled
/// sort. A batch is one scheduling point in the simulator — an unbounded
/// whole-buffer sweep would let four competing sorts reclaim each other's
/// pages in lock-step convoys instead of the fine-grained interleaving a
/// real touch loop produces.
pub const TOUCH_BATCH: u64 = 64;

/// How pass sizes are chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum PassPolicy {
    /// A fixed pass size in bytes (the unmodified application, Figure 7's
    /// x-axis).
    Static(u64),
    /// Ask MAC: `gb_alloc(min, remaining, record)` before every pass.
    GrayBox {
        /// MAC tuning.
        mac: MacParams,
        /// Minimum acceptable pass size in bytes (the paper used 100 MB).
        min: u64,
    },
}

/// Sort configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SortConfig {
    /// Input file of records.
    pub input: String,
    /// Output file (merged) — or run-file prefix in modelled mode.
    pub output: String,
    /// Record size in bytes (the paper's 100).
    pub record_bytes: u64,
    /// Key prefix length for real sorting (the classic 10).
    pub key_bytes: usize,
    /// Pass-size policy.
    pub pass_policy: PassPolicy,
    /// Charge modelled CPU costs through `compute`.
    pub model_cpu: bool,
    /// CPU cost per record per sort pass (PIII-era ≈ 300 ns).
    pub sort_cost_per_record: GrayDuration,
    /// Read/write chunk for streaming I/O.
    pub chunk: u64,
}

impl SortConfig {
    /// A reasonable default configuration for `input` → `output`.
    pub fn new(input: &str, output: &str, pass_policy: PassPolicy) -> Self {
        SortConfig {
            input: input.to_string(),
            output: output.to_string(),
            record_bytes: 100,
            key_bytes: 10,
            pass_policy,
            model_cpu: true,
            sort_cost_per_record: GrayDuration::from_nanos(300),
            chunk: 1 << 20,
        }
    }
}

/// Timing breakdown of a sort run (paper Figure 7 reports read / sort /
/// write / overhead components).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SortReport {
    /// Total elapsed time.
    pub total: GrayDuration,
    /// Time in the read phase (the phase Figures 3 and 7 report).
    pub read_time: GrayDuration,
    /// Time sorting in memory.
    pub sort_time: GrayDuration,
    /// Time writing runs.
    pub write_time: GrayDuration,
    /// MAC overhead: probing.
    pub probe_time: GrayDuration,
    /// MAC overhead: waiting for memory.
    pub wait_time: GrayDuration,
    /// Actual pass sizes used, in bytes.
    pub passes: Vec<u64>,
}

impl SortReport {
    /// Mean pass size in bytes (0 when no passes ran).
    pub fn mean_pass(&self) -> u64 {
        if self.passes.is_empty() {
            0
        } else {
            self.passes.iter().sum::<u64>() / self.passes.len() as u64
        }
    }
}

/// The fastsort application.
pub struct FastSort<'a, O: GrayBoxOs> {
    os: &'a O,
    cfg: SortConfig,
}

impl<'a, O: GrayBoxOs> FastSort<'a, O> {
    /// Creates a sorter.
    pub fn new(os: &'a O, cfg: SortConfig) -> Self {
        assert!(cfg.record_bytes > 0, "record size must be positive");
        assert!(cfg.chunk >= cfg.record_bytes, "chunk smaller than a record");
        FastSort { os, cfg }
    }

    /// Runs pass one (read → sort → write runs) over synthetic data,
    /// which is what the paper's Figure 7 measures. Run files are written
    /// as `<output>.run<k>`.
    pub fn run_modelled(&self) -> OsResult<SortReport> {
        let t_start = self.os.now();
        let mut report = SortReport::default();
        let in_fd = self.os.open(&self.cfg.input)?;
        let input_size = self.os.file_size(in_fd)?;
        let total_records = input_size / self.cfg.record_bytes;
        let total_bytes = total_records * self.cfg.record_bytes;
        let page = self.os.page_size();

        let mac = match &self.cfg.pass_policy {
            PassPolicy::GrayBox { mac, .. } => Some(Mac::new(self.os, mac.clone())),
            PassPolicy::Static(_) => None,
        };

        let mut offset = 0u64;
        let mut run_idx = 0usize;
        while offset < total_bytes {
            let remaining = total_bytes - offset;
            // Decide the pass size (and acquire its memory).
            let (pass_bytes, region, alloc) = match &self.cfg.pass_policy {
                PassPolicy::Static(bytes) => {
                    let pass = round_to(*bytes, self.cfg.record_bytes).min(remaining);
                    let pass = round_to(pass, self.cfg.record_bytes).max(self.cfg.record_bytes);
                    let region = self.os.mem_alloc(pass.max(page))?;
                    (pass, region, None)
                }
                PassPolicy::GrayBox { mac: _, min } => {
                    let mac_ref = mac.as_ref().expect("constructed above");
                    let min = (*min).min(remaining);
                    let got = loop {
                        match mac_ref.gb_alloc(min, remaining, self.cfg.record_bytes)? {
                            Some(a) => break a,
                            None => {
                                // Wait for memory, then try again — the
                                // admission-control loop.
                                self.os.sleep(GrayDuration::from_millis(500));
                            }
                        }
                    };
                    let bytes = got.bytes.min(remaining);
                    (bytes, got.region, Some(got))
                }
            };
            report.passes.push(pass_bytes);
            let buf_pages = pass_bytes.div_ceil(page);

            // Read phase: stream records in, touching buffer pages as they
            // fill.
            let t0 = self.os.now();
            let mut done = 0u64;
            while done < pass_bytes {
                let want = self.cfg.chunk.min(pass_bytes - done);
                let n = self.os.read_discard(in_fd, offset + done, want)?;
                if n == 0 {
                    return Err(OsError::Io("input truncated".into()));
                }
                let first_page = done / page;
                let last_page = (done + n - 1) / page;
                for batch_start in (first_page..=last_page).step_by(TOUCH_BATCH as usize) {
                    let batch_end = (batch_start + TOUCH_BATCH - 1).min(last_page);
                    let plan: Vec<u64> = (batch_start..=batch_end).collect();
                    if self.os.mem_probe_batch(region, &plan).iter().any(|s| !s.ok) {
                        return Err(OsError::InvalidArgument);
                    }
                }
                done += n;
            }
            report.read_time += self.os.now().since(t0);

            // Sort phase: CPU plus two more sweeps of memory traffic.
            let t0 = self.os.now();
            let records = pass_bytes / self.cfg.record_bytes;
            if self.cfg.model_cpu && records > 1 {
                let log2 = 64 - (records - 1).leading_zeros() as u64;
                self.os
                    .compute(self.cfg.sort_cost_per_record * records * log2.max(1) / 8);
            }
            for _ in 0..2 {
                for batch_start in (0..buf_pages).step_by(TOUCH_BATCH as usize) {
                    let batch_end = (batch_start + TOUCH_BATCH).min(buf_pages);
                    let sweep: Vec<u64> = (batch_start..batch_end).collect();
                    if self
                        .os
                        .mem_probe_batch(region, &sweep)
                        .iter()
                        .any(|s| !s.ok)
                    {
                        return Err(OsError::InvalidArgument);
                    }
                }
            }
            report.sort_time += self.os.now().since(t0);

            // Write phase: stream the sorted run out, re-reading buffer
            // pages as records drain.
            let t0 = self.os.now();
            let run_path = format!("{}.run{}", self.cfg.output, run_idx);
            let out_fd = self.os.create(&run_path)?;
            let mut written = 0u64;
            while written < pass_bytes {
                let want = self.cfg.chunk.min(pass_bytes - written);
                self.os.write_fill(out_fd, written, want)?;
                let first_page = written / page;
                let last_page = (written + want - 1) / page;
                for p in first_page..=last_page {
                    self.os.mem_touch_read(region, p)?;
                }
                written += want;
            }
            self.os.close(out_fd)?;
            report.write_time += self.os.now().since(t0);

            // Free the pass buffer (gb-fastsort's no-deadlock discipline).
            match alloc {
                Some(a) => mac.as_ref().expect("gray-box mode").gb_free(a)?,
                None => self.os.mem_free(region)?,
            }
            offset += pass_bytes;
            run_idx += 1;
        }
        self.os.close(in_fd)?;

        if let Some(mac) = &mac {
            let stats: MacStats = mac.take_stats();
            report.probe_time = stats.probe_time;
            report.wait_time = stats.wait_time;
        }
        report.total = self.os.now().since(t_start);
        Ok(report)
    }

    /// Sorts real bytes: reads records, sorts each pass in host memory,
    /// writes real runs, then k-way merges into `output`.
    pub fn run_real(&self) -> OsResult<SortReport> {
        let t_start = self.os.now();
        let mut report = SortReport::default();
        let rec = self.cfg.record_bytes as usize;
        let in_fd = self.os.open(&self.cfg.input)?;
        let input_size = self.os.file_size(in_fd)?;
        if input_size % self.cfg.record_bytes != 0 {
            return Err(OsError::InvalidArgument);
        }

        let mac = match &self.cfg.pass_policy {
            PassPolicy::GrayBox { mac, .. } => Some(Mac::new(self.os, mac.clone())),
            PassPolicy::Static(_) => None,
        };

        // Pass one: sorted runs.
        let mut runs: Vec<String> = Vec::new();
        let mut offset = 0u64;
        while offset < input_size {
            let remaining = input_size - offset;
            let (pass_bytes, alloc) = match &self.cfg.pass_policy {
                PassPolicy::Static(bytes) => {
                    (round_to(*bytes, self.cfg.record_bytes).min(remaining), None)
                }
                PassPolicy::GrayBox { min, .. } => {
                    let mac_ref = mac.as_ref().expect("constructed above");
                    let min = (*min).min(remaining);
                    let a = loop {
                        match mac_ref.gb_alloc(min, remaining, self.cfg.record_bytes)? {
                            Some(a) => break a,
                            None => self.os.sleep(GrayDuration::from_millis(500)),
                        }
                    };
                    (a.bytes.min(remaining), Some(a))
                }
            };
            let pass_bytes = pass_bytes.max(self.cfg.record_bytes);
            report.passes.push(pass_bytes);

            let t0 = self.os.now();
            let mut data = vec![0u8; pass_bytes as usize];
            let mut got = 0usize;
            while (got as u64) < pass_bytes {
                let n = self
                    .os
                    .read_at(in_fd, offset + got as u64, &mut data[got..])?;
                if n == 0 {
                    break;
                }
                got += n;
            }
            data.truncate(got - got % rec);
            report.read_time += self.os.now().since(t0);

            let t0 = self.os.now();
            let key = self.cfg.key_bytes.min(rec);
            let mut order: Vec<usize> = (0..data.len() / rec).collect();
            order.sort_by(|&a, &b| data[a * rec..a * rec + key].cmp(&data[b * rec..b * rec + key]));
            let mut sorted = Vec::with_capacity(data.len());
            for idx in &order {
                sorted.extend_from_slice(&data[idx * rec..(idx + 1) * rec]);
            }
            report.sort_time += self.os.now().since(t0);

            let t0 = self.os.now();
            let run_path = format!("{}.run{}", self.cfg.output, runs.len());
            let out = self.os.create(&run_path)?;
            let mut written = 0usize;
            while written < sorted.len() {
                let n = self.os.write_at(out, written as u64, &sorted[written..])?;
                written += n;
            }
            self.os.close(out)?;
            report.write_time += self.os.now().since(t0);

            if let Some(a) = alloc {
                mac.as_ref().expect("gray-box mode").gb_free(a)?;
            }
            runs.push(run_path);
            offset += sorted.len() as u64;
        }
        self.os.close(in_fd)?;

        // Pass two: k-way merge.
        self.merge_runs(&runs)?;
        for run in &runs {
            self.os.unlink(run)?;
        }
        if let Some(mac) = &mac {
            let stats = mac.take_stats();
            report.probe_time = stats.probe_time;
            report.wait_time = stats.wait_time;
        }
        report.total = self.os.now().since(t_start);
        Ok(report)
    }

    fn merge_runs(&self, runs: &[String]) -> OsResult<()> {
        struct Cursor {
            fd: Fd,
            offset: u64,
            size: u64,
            current: Vec<u8>,
        }
        let rec = self.cfg.record_bytes as usize;
        let key = self.cfg.key_bytes.min(rec);
        let mut cursors = Vec::new();
        for run in runs {
            let fd = self.os.open(run)?;
            let size = self.os.file_size(fd)?;
            let mut cur = Cursor {
                fd,
                offset: 0,
                size,
                current: vec![0u8; rec],
            };
            if advance(self.os, &mut cur)? {
                cursors.push(cur);
            } else {
                self.os.close(fd)?;
            }
        }
        let out = self.os.create(&self.cfg.output)?;
        let mut out_off = 0u64;
        while !cursors.is_empty() {
            let (best, _) = cursors
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.current[..key].cmp(&b.current[..key]))
                .expect("non-empty");
            let n = self.os.write_at(out, out_off, &cursors[best].current)?;
            debug_assert_eq!(n, rec);
            out_off += rec as u64;
            if !advance(self.os, &mut cursors[best])? {
                let done = cursors.swap_remove(best);
                self.os.close(done.fd)?;
            }
        }
        self.os.close(out)?;

        fn advance<O: GrayBoxOs>(os: &O, cur: &mut Cursor) -> OsResult<bool> {
            if cur.offset >= cur.size {
                return Ok(false);
            }
            let mut got = 0usize;
            while got < cur.current.len() {
                let n = os.read_at(cur.fd, cur.offset + got as u64, &mut cur.current[got..])?;
                if n == 0 {
                    return Ok(false);
                }
                got += n;
            }
            cur.offset += cur.current.len() as u64;
            Ok(true)
        }
        Ok(())
    }
}

fn round_to(x: u64, m: u64) -> u64 {
    (x / m * m).max(m)
}

/// Generates `n` random records of `record_bytes` bytes at `path`
/// (real content, for `run_real` and tests).
pub fn make_records<O: GrayBoxOs>(
    os: &O,
    path: &str,
    n: u64,
    record_bytes: u64,
    seed: u64,
) -> OsResult<()> {
    use gray_toolbox::rng::StdRng;
    use gray_toolbox::rng::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let fd = os.create(path)?;
    let mut buf = vec![0u8; (record_bytes * n.min(1024)) as usize];
    let mut written = 0u64;
    let total = n * record_bytes;
    while written < total {
        let want = buf.len().min((total - written) as usize);
        for b in &mut buf[..want] {
            *b = rng.random_range(b'a'..=b'z');
        }
        let put = os.write_at(fd, written, &buf[..want])?;
        written += put as u64;
    }
    os.close(fd)
}

/// Verifies that `path` holds records sorted by their key prefix.
pub fn verify_sorted<O: GrayBoxOs>(
    os: &O,
    path: &str,
    record_bytes: u64,
    key_bytes: usize,
) -> OsResult<bool> {
    let fd = os.open(path)?;
    let size = os.file_size(fd)?;
    let rec = record_bytes as usize;
    let key = key_bytes.min(rec);
    let mut prev: Option<Vec<u8>> = None;
    let mut offset = 0u64;
    let mut buf = vec![0u8; rec];
    while offset < size {
        let mut got = 0usize;
        while got < rec {
            let n = os.read_at(fd, offset + got as u64, &mut buf[got..])?;
            if n == 0 {
                self_close(os, fd)?;
                return Ok(false);
            }
            got += n;
        }
        if let Some(p) = &prev {
            if buf[..key] < p[..key] {
                self_close(os, fd)?;
                return Ok(false);
            }
        }
        prev = Some(buf[..key].to_vec());
        offset += rec as u64;
    }
    self_close(os, fd)?;
    Ok(true)
}

fn self_close<O: GrayBoxOs>(os: &O, fd: Fd) -> OsResult<()> {
    os.close(fd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::make_file;
    use simos::{Sim, SimConfig};

    #[test]
    fn real_sort_single_pass_sorts() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            make_records(os, "/in", 500, 100, 42).unwrap();
            let cfg = SortConfig::new("/in", "/out", PassPolicy::Static(1 << 20));
            FastSort::new(os, cfg).run_real().unwrap();
            assert!(verify_sorted(os, "/out", 100, 10).unwrap());
            assert_eq!(os.stat("/out").unwrap().size, 500 * 100);
        });
    }

    #[test]
    fn real_sort_multi_run_merge_sorts() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            make_records(os, "/in", 1000, 100, 7).unwrap();
            // Pass of 20 KB → 5 runs of 200 records each.
            let cfg = SortConfig::new("/in", "/out", PassPolicy::Static(20_000));
            let report = FastSort::new(os, cfg).run_real().unwrap();
            assert_eq!(report.passes.len(), 5);
            assert!(verify_sorted(os, "/out", 100, 10).unwrap());
            assert_eq!(os.stat("/out").unwrap().size, 1000 * 100);
        });
    }

    #[test]
    fn real_sort_with_mac_policy_completes() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            make_records(os, "/in", 2000, 100, 3).unwrap();
            let cfg = SortConfig::new(
                "/in",
                "/out",
                PassPolicy::GrayBox {
                    mac: MacParams {
                        initial_increment: 16 * 4096,
                        max_increment: 256 * 4096,
                        ..MacParams::default()
                    },
                    min: 50_000,
                },
            );
            let report = FastSort::new(os, cfg).run_real().unwrap();
            assert!(verify_sorted(os, "/out", 100, 10).unwrap());
            assert!(report.probe_time > GrayDuration::ZERO);
        });
    }

    #[test]
    fn modelled_sort_reports_phases_and_runs() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            make_file(os, "/in", 4 << 20).unwrap();
            let cfg = SortConfig::new("/in", "/out", PassPolicy::Static(1 << 20));
            let report = FastSort::new(os, cfg).run_modelled().unwrap();
            assert!(report.passes.len() >= 4, "passes: {:?}", report.passes);
            assert!(report.read_time > GrayDuration::ZERO);
            assert!(report.sort_time > GrayDuration::ZERO);
            assert!(report.write_time > GrayDuration::ZERO);
            // Run files exist.
            assert!(os.stat("/out.run0").is_ok());
        });
    }

    #[test]
    fn oversized_static_pass_thrashes() {
        // Usable memory is 56 MB; sorting 24 MB with a 24 MB pass (fits)
        // versus a 80 MB request (thrashes against itself via buffer +
        // cache interplay is mild here, so compare against a pass bigger
        // than physical memory).
        let cfg_sim = SimConfig::small().without_noise();
        let mut sim = Sim::new(cfg_sim.clone());
        let fits = sim.run_one(|os| {
            make_file(os, "/in", 60 << 20).unwrap();
            let cfg = SortConfig::new("/in", "/out", PassPolicy::Static(20 << 20));
            FastSort::new(os, cfg).run_modelled().unwrap()
        });
        let mut sim = Sim::new(cfg_sim);
        let thrash = sim.run_one(|os| {
            make_file(os, "/in", 60 << 20).unwrap();
            // One 60 MB pass on a 56 MB machine: every sweep swaps.
            let cfg = SortConfig::new("/in", "/out", PassPolicy::Static(80 << 20));
            FastSort::new(os, cfg).run_modelled().unwrap()
        });
        assert!(
            thrash.total > fits.total.mul_f64(1.5),
            "thrash {} vs fits {}",
            thrash.total,
            fits.total
        );
    }

    #[test]
    fn graybox_sort_avoids_thrashing_automatically() {
        let cfg_sim = SimConfig::small().without_noise();
        let mut sim = Sim::new(cfg_sim);
        let report = sim.run_one(|os| {
            make_file(os, "/in", 24 << 20).unwrap();
            let cfg = SortConfig::new(
                "/in",
                "/out",
                PassPolicy::GrayBox {
                    mac: MacParams {
                        initial_increment: 1 << 20,
                        max_increment: 16 << 20,
                        ..MacParams::default()
                    },
                    min: 4 << 20,
                },
            );
            FastSort::new(os, cfg).run_modelled().unwrap()
        });
        // Every admitted pass must fit comfortably under 56 MB usable.
        for &pass in &report.passes {
            assert!(
                pass <= 56 << 20,
                "MAC admitted an impossible pass of {} bytes",
                pass
            );
        }
        assert!(report.probe_time > GrayDuration::ZERO);
    }

    #[test]
    fn verify_sorted_detects_disorder() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            use graybox::os::GrayBoxOsExt;
            let mut data = Vec::new();
            data.extend_from_slice(&[b'z'; 100]);
            data.extend_from_slice(&[b'a'; 100]);
            os.write_file("/bad", &data).unwrap();
            assert!(!verify_sorted(os, "/bad", 100, 10).unwrap());
        });
    }
}
