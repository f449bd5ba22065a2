//! `gbp` — the command-line utility that gives *unmodified* applications
//! gray-box benefits (paper Section 4.1.2).
//!
//! Two usage patterns from the paper:
//!
//! - ``grep foo `gbp -mem *` `` — gbp prints the file list in predicted
//!   best order; the unmodified application consumes it. Costs an extra
//!   fork/exec plus redundant opens (gbp probes, then the app re-opens).
//! - ``gbp -mem -out infile | app -`` — gbp probes a single file, reads
//!   its data blocks in best probe order, and streams them to stdout, so
//!   an unmodified filter gets intra-file reordering at the price of one
//!   extra copy of all data through the pipe.
//!
//! The pipe copy and fork/exec are modelled as explicit CPU charges (they
//! are pure memory/CPU costs), while all file I/O is real against the
//! backend.

use gray_toolbox::GrayDuration;
use graybox::fccd::{Fccd, FccdParams};
use graybox::os::{GrayBoxOs, OsResult};

use crate::grep::GrepMode;
use crate::scan::read_extents;

/// Modelled cost of one fork+exec of the utility.
pub const FORK_EXEC_COST: GrayDuration = GrayDuration::from_millis(3);

/// Modelled bandwidth of the extra copy through the pipe, bytes per
/// second.
pub const PIPE_BANDWIDTH: u64 = 200 << 20;

/// The gbp utility.
pub struct Gbp<'a, O: GrayBoxOs> {
    os: &'a O,
    fccd_params: FccdParams,
    /// Whether to charge the modelled fork/exec and pipe costs: on for
    /// the simulator, off for the `gbp` binary on the host, where the real
    /// costs are paid.
    pub model_cpu: bool,
}

impl<'a, O: GrayBoxOs> Gbp<'a, O> {
    /// Creates the utility with the paper-era cost model.
    pub fn new(os: &'a O, fccd_params: FccdParams) -> Self {
        Gbp {
            os,
            fccd_params,
            model_cpu: true,
        }
    }

    /// Charges a modelled cost, when costs are modelled.
    fn charge(&self, cost: GrayDuration) {
        if self.model_cpu {
            self.os.compute(cost);
        }
    }

    /// Charges the extra copy of `bytes` through the pipe.
    fn charge_pipe(&self, bytes: u64) {
        self.charge(GrayDuration::from_secs_f64(
            bytes as f64 / PIPE_BANDWIDTH as f64,
        ));
    }

    /// `gbp [mode] <files…>`: returns the file list in `mode`'s order (the
    /// utility's flags name [`GrepMode`]'s orders), charging the fork/exec
    /// overhead of running the utility.
    pub fn order_files(&self, paths: &[String], mode: &GrepMode) -> OsResult<Vec<String>> {
        self.charge(FORK_EXEC_COST);
        mode.order(self.os, paths)
    }

    /// `gbp -mem -out <file>`: probes the file, then streams its access
    /// units to `consume` in best probe order. Returns total bytes
    /// streamed. The consumer sees the extents (offset, data) so a real
    /// filter can process them; the first error it returns stops the
    /// stream and is returned.
    pub fn stream_file(
        &self,
        path: &str,
        mut consume: impl FnMut(u64, &[u8]) -> OsResult<()>,
    ) -> OsResult<u64> {
        self.charge(FORK_EXEC_COST);
        let fccd = Fccd::new(self.os, self.fccd_params.clone());
        let fd = self.os.open(path)?;
        let size = self.os.file_size(fd)?;
        let plan = fccd.probe_file(fd, size).plan();
        let mut total = 0u64;
        let chunk = 1u64 << 20;
        let mut buf = vec![0u8; chunk as usize];
        for extent in plan {
            let mut off = extent.offset;
            let end = extent.offset + extent.len;
            while off < end {
                let want = chunk.min(end - off) as usize;
                let n = self.os.read_at(fd, off, &mut buf[..want])?;
                if n == 0 {
                    break;
                }
                self.charge_pipe(n as u64);
                consume(off, &buf[..n])?;
                off += n as u64;
                total += n as u64;
            }
        }
        self.os.close(fd)?;
        Ok(total)
    }

    /// Like [`Gbp::stream_file`] but discards data (modelled pipelines);
    /// still charges the pipe copy.
    pub fn stream_file_discard(&self, path: &str) -> OsResult<u64> {
        self.charge(FORK_EXEC_COST);
        let fccd = Fccd::new(self.os, self.fccd_params.clone());
        let fd = self.os.open(path)?;
        let size = self.os.file_size(fd)?;
        let plan = fccd.probe_file(fd, size).plan();
        let total = read_extents(self.os, fd, &plan, u64::MAX, |n| self.charge_pipe(n))?;
        self.os.close(fd)?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::make_files;
    use graybox::os::GrayBoxOsExt;
    use simos::{Sim, SimConfig};

    fn small_fccd() -> FccdParams {
        FccdParams {
            access_unit: 64 << 10,
            prediction_unit: 16 << 10,
            ..FccdParams::default()
        }
    }

    #[test]
    fn mem_mode_puts_cached_files_first() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let paths = sim.run_one(|os| make_files(os, "/d", 6, 256 << 10).unwrap());
        sim.flush_file_cache();
        // Warm file 4.
        sim.run_one(|os| {
            let fd = os.open(&paths[4]).unwrap();
            os.read_discard(fd, 0, 256 << 10).unwrap();
            os.close(fd).unwrap();
        });
        let paths2 = paths.clone();
        let ordered = sim.run_one(move |os| {
            Gbp::new(os, small_fccd())
                .order_files(&paths2, &GrepMode::GrayBox(small_fccd()))
                .unwrap()
        });
        assert_eq!(ordered[0], paths[4]);
        assert_eq!(ordered.len(), 6);
    }

    #[test]
    fn file_mode_is_inumber_order() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            let paths = make_files(os, "/d", 5, 8192).unwrap();
            let scrambled = crate::workload::shuffled(&paths, 9);
            let ordered = Gbp::new(os, small_fccd())
                .order_files(&scrambled, &GrepMode::Layout)
                .unwrap();
            assert_eq!(ordered, paths, "creation order == i-number order");
        });
    }

    #[test]
    fn stream_delivers_every_byte_exactly_once() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
            os.write_file("/f", &data).unwrap();
            let gbp = Gbp::new(os, small_fccd());
            let mut seen = vec![false; data.len()];
            let mut payload = vec![0u8; data.len()];
            let total = gbp
                .stream_file("/f", |off, bytes| {
                    for (i, &b) in bytes.iter().enumerate() {
                        let idx = off as usize + i;
                        assert!(!seen[idx], "byte {idx} delivered twice");
                        seen[idx] = true;
                        payload[idx] = b;
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(total, data.len() as u64);
            assert!(seen.iter().all(|&s| s));
            assert_eq!(payload, data);
        });
    }

    #[test]
    fn compose_mode_orders_cached_then_by_inumber() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let paths = sim.run_one(|os| make_files(os, "/d", 6, 256 << 10).unwrap());
        sim.flush_file_cache();
        // Warm files 4 and 1: compose must yield [1, 4, 0, 2, 3, 5].
        sim.run_one({
            let warm = vec![paths[4].clone(), paths[1].clone()];
            move |os| {
                for p in &warm {
                    let fd = os.open(p).unwrap();
                    os.read_discard(fd, 0, 256 << 10).unwrap();
                    os.close(fd).unwrap();
                }
            }
        });
        let scrambled = crate::workload::shuffled(&paths, 44);
        let ordered = sim.run_one(move |os| {
            Gbp::new(os, small_fccd())
                .order_files(&scrambled, &GrepMode::Composed(small_fccd()))
                .unwrap()
        });
        assert_eq!(
            ordered,
            vec![
                paths[1].clone(),
                paths[4].clone(),
                paths[0].clone(),
                paths[2].clone(),
                paths[3].clone(),
                paths[5].clone(),
            ]
        );
    }

    #[test]
    fn stream_discard_covers_whole_file_and_charges_pipe() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            use graybox::os::GrayBoxOsExt;
            os.write_file("/f", &vec![3u8; 300_000]).unwrap();
            let gbp = Gbp::new(os, small_fccd());
            let t0 = os.now();
            let total = gbp.stream_file_discard("/f").unwrap();
            let t = os.now().since(t0);
            assert_eq!(total, 300_000);
            // Fork/exec (3 ms) plus pipe copy must show up in the clock.
            assert!(t >= gray_toolbox::GrayDuration::from_millis(3));
        });
    }

    #[test]
    fn pipeline_costs_more_than_direct_library_use() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| make_files(os, "/d", 4, 1 << 20).unwrap());
        let paths: Vec<String> = (0..4).map(|i| format!("/d/f{i:04}")).collect();
        // Direct FCCD ordering:
        let p2 = paths.clone();
        let direct = sim.run_one(move |os| {
            let t0 = os.now();
            let fccd = Fccd::new(os, small_fccd());
            let _ = fccd.order_files(&p2);
            os.now().since(t0)
        });
        // Via gbp (fork/exec charged):
        let p3 = paths.clone();
        let via_gbp = sim.run_one(move |os| {
            let t0 = os.now();
            let _ = Gbp::new(os, small_fccd())
                .order_files(&p3, &GrepMode::GrayBox(small_fccd()))
                .unwrap();
            os.now().since(t0)
        });
        assert!(via_gbp > direct, "gbp {via_gbp} vs direct {direct}");
    }
}
