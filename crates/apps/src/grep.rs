//! The `grep` application in its three forms (paper Section 4.1.3,
//! Figure 3, and the Figure 4 "search" benchmark).
//!
//! - **Unmodified**: scans the files in command-line order.
//! - **gb-grep**: the ~20-line modification — reorder the file list with
//!   the gray-box library before scanning (cached files first, optionally
//!   composed with i-number order).
//! - **gbp pipeline**: the unmodified binary fed by `gbp` (see
//!   [`crate::gbp`]); gets almost all the benefit, minus fork/exec and the
//!   redundant opens.
//!
//! Both reorder with [`GrepMode::order`], the one file-list ordering in
//! the crate; `gbp`'s command-line flags name its modes.
//!
//! Two needle modes support both real and modelled workloads: a literal
//! byte pattern genuinely searched in file contents, or a synthetic oracle
//! ("the match is in file X") for bulk experiments whose files carry fill
//! content.

use gray_toolbox::GrayDuration;
use graybox::compose::ComposedOrderer;
use graybox::fccd::{Fccd, FccdParams};
use graybox::fldc::{Fldc, LayoutRank};
use graybox::os::{GrayBoxOs, OsResult};

/// What grep is looking for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Needle {
    /// A literal byte pattern, really searched in the data read.
    Literal(Vec<u8>),
    /// Modelled search: the match (if any) lives in the named file; data
    /// is read and scan CPU charged, but no bytes are inspected.
    SyntheticIn(Option<String>),
}

/// How the file list is ordered before scanning.
#[derive(Debug, Clone, PartialEq)]
pub enum GrepMode {
    /// Command-line order (the unmodified application).
    Unmodified,
    /// Reordered by FCCD: predicted-cached files first (`gbp -mem`).
    GrayBox(FccdParams),
    /// Reordered by FCCD + FLDC composition (cached first, then i-number;
    /// `gbp -compose`).
    Composed(FccdParams),
    /// Reordered by FLDC only (i-number order; `gbp -file`).
    Layout,
    /// Reordered by modification time, FLDC's predictor for a
    /// log-structured file system (`gbp -mtime`).
    WriteTime,
}

impl GrepMode {
    /// `paths` in this mode's order. No path is dropped: the two stat
    /// orders list the paths they cannot stat last, in command-line order
    /// (such a file may still open by the time it is read), and FCCD ranks
    /// a file it cannot open with its small-file penalty, behind every
    /// file it finds cached.
    pub fn order<O: GrayBoxOs>(&self, os: &O, paths: &[String]) -> OsResult<Vec<String>> {
        Ok(match self {
            GrepMode::Unmodified => paths.to_vec(),
            GrepMode::GrayBox(params) => Fccd::new(os, params.clone())
                .order_files(paths)
                .into_iter()
                .map(|r| r.path)
                .collect(),
            GrepMode::Composed(params) => {
                let fccd = Fccd::new(os, params.clone());
                let fldc = Fldc::new(os);
                ComposedOrderer::new(&fccd, &fldc)
                    .order_files(paths)?
                    .into_iter()
                    .map(|r| r.path)
                    .collect()
            }
            GrepMode::Layout => unstat_last(paths, Fldc::new(os).order_by_inumber(paths)),
            GrepMode::WriteTime => unstat_last(paths, Fldc::new(os).order_by_mtime(paths)),
        })
    }
}

/// A stat order's ranked paths, then the `unstated` paths of `paths` it
/// could not rank, in their given order.
fn unstat_last(paths: &[String], (ranks, unstated): (Vec<LayoutRank>, usize)) -> Vec<String> {
    let mut out: Vec<String> = ranks.into_iter().map(|r| r.path).collect();
    if unstated > 0 {
        for p in paths {
            if !out.contains(p) {
                out.push(p.clone());
            }
        }
    }
    out
}

/// Modelled scan cost per byte (PIII-era grep ≈ 80 MB/s), charged
/// through `compute` for every byte read.
pub const SCAN_COST_PER_BYTE: GrayDuration = GrayDuration::from_nanos(12);

/// Read-buffer size per `read` call.
pub const CHUNK: u64 = 256 << 10;

/// Tunables for the scanner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GrepOptions {
    /// Whether to stop at the first matching file (the Figure 4 search
    /// benchmark) or scan everything (the Figure 3 throughput benchmark).
    pub stop_at_first_match: bool,
}

/// Result of a grep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrepReport {
    /// Total elapsed time including any reordering probes.
    pub elapsed: GrayDuration,
    /// Files fully or partially scanned.
    pub files_scanned: usize,
    /// Bytes read.
    pub bytes: u64,
    /// Files containing a match, in the order found.
    pub matches: Vec<String>,
}

/// The grep application.
pub struct Grep<'a, O: GrayBoxOs> {
    os: &'a O,
    options: GrepOptions,
}

impl<'a, O: GrayBoxOs> Grep<'a, O> {
    /// Creates a grep over the backend.
    pub fn new(os: &'a O, options: GrepOptions) -> Self {
        Grep { os, options }
    }

    /// Runs the search over `paths` in the order implied by `mode`.
    pub fn run(&self, paths: &[String], needle: &Needle, mode: &GrepMode) -> OsResult<GrepReport> {
        let t0 = self.os.now();
        let ordered = mode.order(self.os, paths)?;
        let mut report = GrepReport {
            elapsed: GrayDuration::ZERO,
            files_scanned: 0,
            bytes: 0,
            matches: Vec::new(),
        };
        for path in &ordered {
            let matched = self.scan_one(path, needle)?;
            report.files_scanned += 1;
            report.bytes += self.os.stat(path).map(|s| s.size).unwrap_or(0);
            if matched {
                report.matches.push(path.clone());
                if self.options.stop_at_first_match {
                    break;
                }
            }
        }
        report.elapsed = self.os.now().since(t0);
        Ok(report)
    }

    /// Scans one file; returns whether it matched.
    fn scan_one(&self, path: &str, needle: &Needle) -> OsResult<bool> {
        let Ok(fd) = self.os.open(path) else {
            return Ok(false);
        };
        let size = self.os.file_size(fd)?;
        let mut matched = match needle {
            Needle::SyntheticIn(Some(p)) => p == path,
            Needle::SyntheticIn(None) => false,
            Needle::Literal(_) => false,
        };
        let mut off = 0u64;
        let mut carry: Vec<u8> = Vec::new();
        let mut buf = vec![0u8; CHUNK as usize];
        while off < size {
            let want = CHUNK.min(size - off) as usize;
            let n = match needle {
                Needle::Literal(pattern) => {
                    let n = self.os.read_at(fd, off, &mut buf[..want])?;
                    if n > 0 {
                        // Search carry + buf so matches spanning chunk
                        // boundaries are found.
                        let mut window = std::mem::take(&mut carry);
                        window.extend_from_slice(&buf[..n]);
                        if find(&window, pattern) {
                            matched = true;
                        }
                        let keep = pattern.len().saturating_sub(1).min(window.len());
                        carry = window[window.len() - keep..].to_vec();
                    }
                    n as u64
                }
                Needle::SyntheticIn(_) => self.os.read_discard(fd, off, want as u64)?,
            };
            if n == 0 {
                break;
            }
            self.os.compute(SCAN_COST_PER_BYTE * n);
            off += n;
        }
        self.os.close(fd)?;
        Ok(matched)
    }
}

/// Naive substring search (pattern sizes are tiny).
fn find(haystack: &[u8], pattern: &[u8]) -> bool {
    if pattern.is_empty() || pattern.len() > haystack.len() {
        return false;
    }
    haystack.windows(pattern.len()).any(|w| w == pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::make_files;
    use graybox::os::GrayBoxOsExt;
    use simos::{Sim, SimConfig};

    fn small_fccd() -> FccdParams {
        // One or two probes per small file: probing must stay sparse or
        // its cold-miss cost swamps the benefit (the paper's 5 MB units).
        FccdParams {
            access_unit: 2 << 20,
            prediction_unit: 1 << 20,
            ..FccdParams::default()
        }
    }

    #[test]
    fn literal_search_finds_real_matches() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            os.mkdir("/t").unwrap();
            os.write_file("/t/a", b"nothing here").unwrap();
            os.write_file("/t/b", b"xx the needle yy").unwrap();
            let grep = Grep::new(os, GrepOptions::default());
            let report = grep
                .run(
                    &["/t/a".to_string(), "/t/b".to_string()],
                    &Needle::Literal(b"needle".to_vec()),
                    &GrepMode::Unmodified,
                )
                .unwrap();
            assert_eq!(report.matches, vec!["/t/b"]);
            assert_eq!(report.files_scanned, 2);
        });
    }

    #[test]
    fn literal_search_spans_chunk_boundaries() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            // Place the pattern exactly across the chunk boundary.
            let mut data = vec![b'.'; CHUNK as usize - 3];
            data.extend_from_slice(b"needle");
            data.extend(vec![b'.'; 100]);
            os.write_file("/f", &data).unwrap();
            let grep = Grep::new(os, GrepOptions::default());
            let report = grep
                .run(
                    &["/f".to_string()],
                    &Needle::Literal(b"needle".to_vec()),
                    &GrepMode::Unmodified,
                )
                .unwrap();
            assert_eq!(report.matches.len(), 1);
        });
    }

    #[test]
    fn graybox_grep_beats_unmodified_on_warm_cache() {
        // 30 x 2 MB files, 56 MB usable memory: about half the set fits.
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let paths = sim.run_one(|os| make_files(os, "/corpus", 30, 2 << 20).unwrap());
        sim.flush_file_cache();
        let needle = Needle::SyntheticIn(None);

        // Warm up with a gray-box pass, then measure both modes from the
        // same warm state.
        let gb_mode = GrepMode::GrayBox(small_fccd());
        sim.run_one(|os| {
            Grep::new(os, GrepOptions::default())
                .run(&paths, &needle, &gb_mode)
                .unwrap()
        });
        let gb = sim.run_one(|os| {
            Grep::new(os, GrepOptions::default())
                .run(&paths, &needle, &gb_mode)
                .unwrap()
        });

        let mut sim2 = Sim::new(SimConfig::small().without_noise());
        let paths2 = sim2.run_one(|os| make_files(os, "/corpus", 30, 2 << 20).unwrap());
        sim2.flush_file_cache();
        sim2.run_one(|os| {
            Grep::new(os, GrepOptions::default())
                .run(&paths2, &needle, &GrepMode::Unmodified)
                .unwrap()
        });
        let un = sim2.run_one(|os| {
            Grep::new(os, GrepOptions::default())
                .run(&paths2, &needle, &GrepMode::Unmodified)
                .unwrap()
        });

        assert!(
            gb.elapsed < un.elapsed.mul_f64(0.75),
            "gray-box {} vs unmodified {}",
            gb.elapsed,
            un.elapsed
        );
    }

    #[test]
    fn search_stops_early_when_match_is_cached() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let paths = sim.run_one(|os| make_files(os, "/corpus", 10, 1 << 20).unwrap());
        sim.flush_file_cache();
        // Warm the last file — where the match lives.
        let target = paths.last().unwrap().clone();
        sim.run_one(|os| {
            let fd = os.open(&target).unwrap();
            os.read_discard(fd, 0, 1 << 20).unwrap();
            os.close(fd).unwrap();
        });
        let needle = Needle::SyntheticIn(Some(target.clone()));
        let opts = GrepOptions {
            stop_at_first_match: true,
        };
        let gb = sim.run_one(|os| {
            Grep::new(os, opts.clone())
                .run(&paths, &needle, &GrepMode::GrayBox(small_fccd()))
                .unwrap()
        });
        assert_eq!(gb.files_scanned, 1, "cached match must be found first");
        let un = sim.run_one(|os| {
            Grep::new(os, opts.clone())
                .run(&paths, &needle, &GrepMode::Unmodified)
                .unwrap()
        });
        assert_eq!(un.files_scanned, 10, "unmodified scans in given order");
        assert!(gb.elapsed < un.elapsed);
    }

    #[test]
    fn layout_mode_orders_by_inumber() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            let paths = make_files(os, "/d", 5, 8192).unwrap();
            let scrambled = crate::workload::shuffled(&paths, 1);
            let grep = Grep::new(os, GrepOptions::default());
            let report = grep
                .run(&scrambled, &Needle::SyntheticIn(None), &GrepMode::Layout)
                .unwrap();
            assert_eq!(report.files_scanned, 5);
        });
    }

    #[test]
    fn stat_orders_list_unstatable_paths_last() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            let paths = make_files(os, "/d", 2, 8192).unwrap();
            let given = [paths[1].clone(), "/d/ghost".to_string(), paths[0].clone()];
            for mode in [GrepMode::Layout, GrepMode::WriteTime] {
                let ordered = mode.order(os, &given).unwrap();
                assert_eq!(ordered, [&paths[0], &paths[1], "/d/ghost"], "{mode:?}");
            }
        });
    }
}
