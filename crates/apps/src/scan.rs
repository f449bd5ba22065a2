//! Single-file scans: the traditional linear scan versus the gray-box scan
//! (paper Section 4.1.3, Figure 2).
//!
//! The gray-box scan first asks FCCD which access units of the file are in
//! the cache, then reads the predicted-cached units before the rest. Over
//! repeated runs this is also the paper's *positive feedback* control: the
//! file is accessed in access-unit-sized chunks, so access-unit-sized
//! chunks are what ends up cached, stabilizing the prediction.
//!
//! [`read_extents`] is the one loop that reads a file's ranges in order;
//! both scans read through it.

use gray_toolbox::GrayDuration;
use graybox::fccd::{Extent, Fccd, FccdParams};
use graybox::os::{Fd, GrayBoxOs, OsResult};

/// Result of one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanReport {
    /// Total elapsed time, including any probing.
    pub elapsed: GrayDuration,
    /// Time spent probing (zero for the linear scan).
    pub probe_time: GrayDuration,
    /// Bytes covered.
    pub bytes: u64,
}

/// Reads each extent of `fd` in order, in reads of at most `chunk` bytes
/// (`u64::MAX`: one read per extent), moving to the next extent at the
/// end of one or at a 0-byte read. Calls `on_read(n)` after each read and
/// returns the bytes covered.
pub fn read_extents<O: GrayBoxOs>(
    os: &O,
    fd: Fd,
    extents: &[Extent],
    chunk: u64,
    mut on_read: impl FnMut(u64),
) -> OsResult<u64> {
    let mut bytes = 0;
    for extent in extents {
        let end = extent.offset + extent.len;
        let mut off = extent.offset;
        while off < end {
            let n = os.read_discard(fd, off, chunk.min(end - off))?;
            if n == 0 {
                break;
            }
            on_read(n);
            off += n;
            bytes += n;
        }
    }
    Ok(bytes)
}

/// Reads the whole file front to back in `chunk`-byte reads.
pub fn linear_scan<O: GrayBoxOs>(os: &O, path: &str, chunk: u64) -> OsResult<ScanReport> {
    assert!(chunk > 0, "chunk must be positive");
    let t0 = os.now();
    let fd = os.open(path)?;
    let size = os.file_size(fd)?;
    let whole = Extent {
        offset: 0,
        len: size,
    };
    let bytes = read_extents(os, fd, &[whole], chunk, |_| {})?;
    os.close(fd)?;
    Ok(ScanReport {
        elapsed: os.now().since(t0),
        probe_time: GrayDuration::ZERO,
        bytes,
    })
}

/// Probes the file with FCCD, then reads its access units fastest-first
/// (each unit is itself read sequentially in `chunk`-byte reads).
pub fn graybox_scan<O: GrayBoxOs>(
    os: &O,
    path: &str,
    params: FccdParams,
    chunk: u64,
) -> OsResult<ScanReport> {
    assert!(chunk > 0, "chunk must be positive");
    let t0 = os.now();
    let fccd = Fccd::new(os, params);
    let fd = os.open(path)?;
    let size = os.file_size(fd)?;
    let probe_t0 = os.now();
    let plan = fccd.probe_file(fd, size).plan();
    let probe_time = os.now().since(probe_t0);
    let bytes = read_extents(os, fd, &plan, chunk, |_| {})?;
    os.close(fd)?;
    Ok(ScanReport {
        elapsed: os.now().since(t0),
        probe_time,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::make_file;
    use simos::{Sim, SimConfig};

    fn small_fccd() -> FccdParams {
        // Probes must stay sparse (paper: 4 per access unit): 8 MB access
        // units with 2 MB prediction units over a 64 MB file ≈ 32 probes.
        FccdParams {
            access_unit: 8 << 20,
            prediction_unit: 2 << 20,
            ..FccdParams::default()
        }
    }

    #[test]
    fn both_scans_cover_the_whole_file() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let size = 6u64 << 20;
        sim.run_one(|os| make_file(os, "/f", size).unwrap());
        sim.flush_file_cache();
        let lin = sim.run_one(|os| linear_scan(os, "/f", 1 << 20).unwrap());
        assert_eq!(lin.bytes, size);
        sim.flush_file_cache();
        let gb = sim.run_one(|os| graybox_scan(os, "/f", small_fccd(), 1 << 20).unwrap());
        assert_eq!(gb.bytes, size);
    }

    #[test]
    fn graybox_scan_wins_on_warm_cache_when_file_exceeds_cache() {
        // 64 MB RAM (56 MB usable cache) and a 64 MB file: a repeated
        // linear scan is the LRU worst case; the gray-box scan keeps
        // hitting whatever survived.
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let size = 64u64 << 20;
        sim.run_one(|os| make_file(os, "/big", size).unwrap());
        sim.flush_file_cache();
        // Warm-up run for each strategy, then a measured run.
        sim.run_one(|os| linear_scan(os, "/big", 1 << 20).unwrap());
        let lin = sim.run_one(|os| linear_scan(os, "/big", 1 << 20).unwrap());
        sim.flush_file_cache();
        sim.run_one(|os| graybox_scan(os, "/big", small_fccd(), 1 << 20).unwrap());
        let gb = sim.run_one(|os| graybox_scan(os, "/big", small_fccd(), 1 << 20).unwrap());
        assert!(
            gb.elapsed < lin.elapsed.mul_f64(0.8),
            "gray-box {} vs linear {}",
            gb.elapsed,
            lin.elapsed
        );
    }

    #[test]
    fn file_smaller_than_cache_needs_no_gray_box() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let size = 8u64 << 20;
        sim.run_one(|os| make_file(os, "/small", size).unwrap());
        sim.flush_file_cache();
        sim.run_one(|os| linear_scan(os, "/small", 1 << 20).unwrap());
        let warm = sim.run_one(|os| linear_scan(os, "/small", 1 << 20).unwrap());
        // Entirely cached: memory-speed rescan.
        let rate = size as f64 / warm.elapsed.as_secs_f64() / (1 << 20) as f64;
        assert!(rate > 100.0, "warm rescan {rate:.0} MB/s");
    }
}
