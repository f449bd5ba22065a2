//! `fastsort` — the highly tuned two-pass disk-to-disk sort (paper
//! Sections 4.1.3 and 4.3.3; after Agarwal's SIGMOD'96 super-scalar sort).
//!
//! Pass one reads runs of records (each run sized to fit in memory), sorts
//! them, and writes sorted runs to disk; pass two merges. The paper's
//! Figure 7 question is *how big should a run be?* — guess too high in a
//! multiprogrammed system and the machine thrashes; `gb-fastsort` instead
//! asks MAC for however much memory is actually available
//! (`gb_alloc(min, remaining, record)`) and sorts exactly what it is
//! granted: a grant is resident when it arrives and never exceeds what is
//! left of the input, so the last, usually not page-aligned, pass is
//! granted in full. It frees each pass's memory before asking for the
//! next, so it can never deadlock.
//!
//! [`FastSort::run_modelled`] is pass one over synthetic bulk data with
//! realistic CPU and memory costs charged — what Figure 7, the
//! `fastsort_mac` example and graybench's `apps_bulk` run (gigabytes of
//! "data" at megabytes of host memory). Memory traffic is real in the
//! sense that matters: every buffer page is write-touched as records land
//! and re-touched during sorting (in batches of [`TOUCH_BATCH`] pages,
//! each one scheduling point), so an oversized run genuinely thrashes the
//! simulated VM.

use gray_toolbox::GrayDuration;
use graybox::mac::{Mac, MacParams};
use graybox::os::{GrayBoxOs, OsError, OsResult};

/// Upper bound, in pages, on one `mem_probe_batch` issued by the modelled
/// sort. A batch is one scheduling point in the simulator — an unbounded
/// whole-buffer sweep would let four competing sorts reclaim each other's
/// pages in lock-step convoys instead of the fine-grained interleaving a
/// real touch loop produces.
pub const TOUCH_BATCH: u64 = 64;

/// Record size in bytes (the paper's 100).
pub const RECORD_BYTES: u64 = 100;

/// Modelled CPU cost per record per sort pass (PIII-era ≈ 300 ns).
pub const SORT_COST_PER_RECORD: GrayDuration = GrayDuration::from_nanos(300);

/// Read/write chunk for streaming I/O, in bytes.
pub const CHUNK: u64 = 1 << 20;

/// How long gb-fastsort sleeps after MAC turns a pass down before it asks
/// again.
pub const ADMISSION_WAIT: GrayDuration = GrayDuration::from_millis(500);

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
    /// Run-file prefix: pass `k` writes `<output>.run<k>`.
    pub output: String,
    /// Pass-size policy.
    pub pass_policy: PassPolicy,
}

impl SortConfig {
    /// A reasonable default configuration for `input` → `output`.
    pub fn new(input: &str, output: &str, pass_policy: PassPolicy) -> Self {
        SortConfig {
            input: input.to_string(),
            output: output.to_string(),
            pass_policy,
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
    /// MAC overhead: sleeping after MAC turned a pass down.
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
        let total_records = input_size / RECORD_BYTES;
        let total_bytes = total_records * RECORD_BYTES;
        let page = self.os.page_size();

        let mac = match &self.cfg.pass_policy {
            PassPolicy::GrayBox { mac, .. } => Some(Mac::new(self.os, mac.clone())),
            PassPolicy::Static(_) => None,
        };

        // The pages of one touch batch, refilled for every batch.
        let mut plan = Vec::with_capacity(TOUCH_BATCH as usize);
        let mut offset = 0u64;
        let mut run_idx = 0usize;
        while offset < total_bytes {
            let remaining = total_bytes - offset;
            // Decide the pass size (and acquire its memory).
            let (pass_bytes, region, alloc) = match &self.cfg.pass_policy {
                PassPolicy::Static(bytes) => {
                    let pass = round_to(*bytes, RECORD_BYTES).min(remaining);
                    let pass = round_to(pass, RECORD_BYTES).max(RECORD_BYTES);
                    let region = self.os.mem_alloc(pass.max(page))?;
                    (pass, region, None)
                }
                PassPolicy::GrayBox { mac: _, min } => {
                    let mac_ref = mac.as_ref().expect("constructed above");
                    let min = (*min).min(remaining);
                    let got = loop {
                        match mac_ref.gb_alloc(min, remaining, RECORD_BYTES)? {
                            Some(a) => break a,
                            None => {
                                // Wait for memory, then try again — the
                                // admission-control loop.
                                self.os.sleep(ADMISSION_WAIT);
                                report.wait_time += ADMISSION_WAIT;
                            }
                        }
                    };
                    (got.bytes, got.region, Some(got))
                }
            };
            report.passes.push(pass_bytes);
            let buf_pages = pass_bytes.div_ceil(page);

            // Read phase: stream records in, touching buffer pages as they
            // fill.
            let t0 = self.os.now();
            let mut done = 0u64;
            while done < pass_bytes {
                let want = CHUNK.min(pass_bytes - done);
                let n = self.os.read_discard(in_fd, offset + done, want)?;
                if n == 0 {
                    return Err(OsError::Io("input truncated".into()));
                }
                let first_page = done / page;
                let last_page = (done + n - 1) / page;
                for batch_start in (first_page..=last_page).step_by(TOUCH_BATCH as usize) {
                    let batch_end = (batch_start + TOUCH_BATCH - 1).min(last_page);
                    plan.clear();
                    plan.extend(batch_start..=batch_end);
                    if self.os.mem_probe_batch(region, &plan).iter().any(|s| !s.ok) {
                        return Err(OsError::InvalidArgument);
                    }
                }
                done += n;
            }
            report.read_time += self.os.now().since(t0);

            // Sort phase: CPU plus two more sweeps of memory traffic.
            let t0 = self.os.now();
            let records = pass_bytes / RECORD_BYTES;
            if records > 1 {
                let log2 = 64 - (records - 1).leading_zeros() as u64;
                self.os
                    .compute(SORT_COST_PER_RECORD * records * log2.max(1) / 8);
            }
            for _ in 0..2 {
                for batch_start in (0..buf_pages).step_by(TOUCH_BATCH as usize) {
                    let batch_end = (batch_start + TOUCH_BATCH).min(buf_pages);
                    plan.clear();
                    plan.extend(batch_start..batch_end);
                    if self.os.mem_probe_batch(region, &plan).iter().any(|s| !s.ok) {
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
                let want = CHUNK.min(pass_bytes - written);
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
            report.probe_time = mac.take_stats().probe_time;
        }
        report.total = self.os.now().since(t_start);
        Ok(report)
    }
}

fn round_to(x: u64, m: u64) -> u64 {
    (x / m * m).max(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::make_file;
    use simos::exec::Workload;
    use simos::{Sim, SimConfig, SimProc};

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
    fn graybox_sort_reports_the_waits_it_sleeps() {
        // A hog holds three quarters of memory for the first second, so
        // the sort's first request, for all of its 24 MB (over two fifths
        // of memory), is turned down until the hog lets go. The input
        // starts cold, so MAC calibrates on free memory.
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| make_file(os, "/in", 24 << 20).unwrap());
        sim.flush_file_cache();
        let usable = sim.oracle().total_pages() * 4096;
        let hog: Workload<'_, Option<SortReport>> = Box::new(move |os: &SimProc| {
            let region = os.mem_alloc(usable / 4 * 3).unwrap();
            for p in 0..usable / 4 * 3 / 4096 {
                os.mem_touch_write(region, p).unwrap();
            }
            os.sleep(GrayDuration::from_secs(1));
            os.mem_free(region).unwrap();
            None
        });
        let sort: Workload<'_, Option<SortReport>> = Box::new(move |os: &SimProc| {
            os.sleep(GrayDuration::from_millis(200));
            let policy = PassPolicy::GrayBox {
                mac: MacParams {
                    initial_increment: 1 << 20,
                    max_increment: 16 << 20,
                },
                min: 24 << 20,
            };
            let cfg = SortConfig::new("/in", "/out", policy);
            Some(FastSort::new(os, cfg).run_modelled().unwrap())
        });
        let reports = sim.run(vec![("hog".into(), hog), ("sort".into(), sort)]);
        let report = reports[1].as_ref().expect("the sort reports");
        assert!(
            report.wait_time >= ADMISSION_WAIT,
            "denied at least once, so at least one wait: {report:?}"
        );
        assert_eq!(report.wait_time.as_nanos() % ADMISSION_WAIT.as_nanos(), 0);
    }
}
