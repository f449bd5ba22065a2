//! FLDC — the File Layout Detector and Controller (paper Section 4.2).
//!
//! FLDC lets an application order small-file accesses by the files'
//! *probable layout on disk*, reducing seek time — and, when layout has
//! decayed with file-system age, restore it by *refreshing* a directory.
//!
//! # Gray-box knowledge
//!
//! Most UNIX file systems descend from the Berkeley Fast File System:
//! blocks and metadata of files in the same directory land in the same
//! cylinder group, and on a clean file system, files created consecutively
//! in a directory get consecutive i-numbers *and* nearby data blocks. So:
//!
//! - **Detection**: `stat()` each file (a cheap probe) and sort by
//!   `(device, i-number)`. Sorting by i-number subsumes sorting by
//!   directory, since each directory's files cluster in i-number space.
//! - **Control**: to counteract aging, *move the system to a known state*
//!   by rewriting a directory's files in a chosen order (small files first,
//!   so that large files — which decorrelate i-numbers from layout — get
//!   the tail i-numbers). The six-step refresh recipe is the paper's:
//!   create a temp directory, sort, copy in order, fix up times, delete the
//!   original, rename.
//!
//! # Caveats (paper Section 4.2.5)
//!
//! The inference is UNIX-centric (it needs i-numbers) and FFS-specific; a
//! log-structured file system would need a time-of-write heuristic instead.
//! Refreshing changes i-numbers, so it must not run concurrently with
//! applications that hold i-numbers; and the delete/rename pair is not
//! atomic — a crash in between needs the "nightly repair script" described
//! by the paper, which [`Fldc::repair_interrupted_refresh`] implements.

use crate::os::{GrayBoxOs, GrayBoxOsExt, OsError, OsResult, Stat};
use crate::technique::{Technique, TechniqueInventory};

/// Suffix used for the temporary directory during a refresh; doubles as the
/// crash signature [`Fldc::repair_interrupted_refresh`] looks for.
const REFRESH_SUFFIX: &str = ".gbrefresh";

/// A file with its stat information, as ranked by the detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutRank {
    /// The file's path.
    pub path: String,
    /// The stat the ranking was computed from.
    pub stat: Stat,
}

/// Orderings the refresh controller can write files back in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshOrder {
    /// Smallest files first (the paper's default: large files decorrelate
    /// i-numbers from layout, so they are pushed to the tail).
    #[default]
    SmallestFirst,
    /// Preserve the current directory order.
    DirectoryOrder,
    /// Lexicographic by name (useful for reproducible tests).
    ByName,
}

/// The File Layout Detector and Controller.
pub struct Fldc<'a, O: GrayBoxOs> {
    os: &'a O,
}

impl<'a, O: GrayBoxOs> Fldc<'a, O> {
    /// Creates a detector/controller over the given OS.
    pub fn new(os: &'a O) -> Self {
        Fldc { os }
    }

    /// Stats every path and returns them sorted by `(device, i-number)` —
    /// the predicted on-disk order. Paths that fail to stat are dropped
    /// (they cannot be read anyway); the second element of the return
    /// counts them.
    pub fn order_by_inumber(&self, paths: &[String]) -> (Vec<LayoutRank>, usize) {
        self.order_by(paths, |s| (s.dev, s.ino))
    }

    /// Stats every path and returns them sorted by **modification time** —
    /// the layout predictor for log-structured file systems, where "writes
    /// that occur near one another in time lead to proximity in space"
    /// (paper §4.2.5's LFS porting note). Ties break by i-number, then
    /// path. Unstat-able paths are counted, as in
    /// [`Fldc::order_by_inumber`].
    pub fn order_by_mtime(&self, paths: &[String]) -> (Vec<LayoutRank>, usize) {
        self.order_by(paths, |s| (s.mtime, s.ino))
    }

    /// The one stat loop behind both orders: ranks every path that stats,
    /// sorted by `key` and then by path, and counts the ones that do not.
    fn order_by<K: Ord>(
        &self,
        paths: &[String],
        key: impl Fn(&Stat) -> K,
    ) -> (Vec<LayoutRank>, usize) {
        let mut ranks = Vec::with_capacity(paths.len());
        for path in paths {
            if let Ok(stat) = self.os.stat(path) {
                ranks.push(LayoutRank {
                    path: path.clone(),
                    stat,
                });
            }
        }
        ranks.sort_by(|a, b| (key(&a.stat), &a.path).cmp(&(key(&b.stat), &b.path)));
        let failed = paths.len() - ranks.len();
        (ranks, failed)
    }

    /// Groups paths by their parent directory (the paper's weaker
    /// heuristic: 10–25% over random, versus ~6x for i-number order),
    /// preserving input order within each group.
    pub fn order_by_directory(&self, paths: &[String]) -> Vec<String> {
        let mut keyed: Vec<(String, usize, &String)> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (parent_dir(p).to_string(), i, p))
            .collect();
        keyed.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        keyed.into_iter().map(|(_, _, p)| p.clone()).collect()
    }

    /// Expands a directory into the i-number-ordered list of its files
    /// (convenience over `list_dir` + [`Fldc::order_by_inumber`]).
    pub fn order_directory(&self, dir: &str) -> OsResult<Vec<LayoutRank>> {
        let names = self.os.list_dir(dir)?;
        let paths: Vec<String> = names.iter().map(|n| self.os.join(dir, n)).collect();
        let (ranks, _) = self.order_by_inumber(&paths);
        Ok(ranks.into_iter().filter(|r| !r.stat.is_dir).collect())
    }

    /// Refreshes `dir`: rewrites its files in `order` so that i-number
    /// order again matches data-block layout (the paper's six steps).
    ///
    /// Subdirectories are not descended into; they are moved across by
    /// rename. Access and modification times of copied files are restored
    /// so time-dependent programs (`make`) keep working.
    ///
    /// Returns the number of files rewritten.
    pub fn refresh_directory(&self, dir: &str, order: RefreshOrder) -> OsResult<usize> {
        let dir = dir.trim_end_matches('/');
        if dir.is_empty() {
            return Err(OsError::InvalidArgument);
        }
        // Step 1: create a temporary directory at the same level.
        let tmp = format!("{dir}{REFRESH_SUFFIX}");
        self.os.mkdir(&tmp)?;

        // Step 2: sort the files.
        let names = self.os.list_dir(dir)?;
        let mut files: Vec<(String, Stat)> = Vec::new();
        let mut subdirs: Vec<String> = Vec::new();
        for name in names {
            let path = self.os.join(dir, &name);
            let stat = self.os.stat(&path)?;
            if stat.is_dir {
                subdirs.push(name);
            } else {
                files.push((name, stat));
            }
        }
        match order {
            RefreshOrder::SmallestFirst => {
                files.sort_by(|a, b| (a.1.size, &a.0).cmp(&(b.1.size, &b.0)));
            }
            RefreshOrder::DirectoryOrder => {}
            RefreshOrder::ByName => files.sort_by(|a, b| a.0.cmp(&b.0)),
        }

        // Step 3: copy the files over in sorted order, and
        // step 4: restore their access/modification times.
        for (name, stat) in &files {
            let src = self.os.join(dir, name);
            let dst = self.os.join(&tmp, name);
            self.copy_file(&src, &dst)?;
            self.os.set_times(&dst, stat.atime, stat.mtime)?;
        }
        // Subdirectories are moved, not copied, so their layout (and that
        // of everything beneath them) is untouched.
        for name in &subdirs {
            let src = self.os.join(dir, name);
            let dst = self.os.join(&tmp, name);
            self.os.rename(&src, &dst)?;
        }

        // Step 5: delete the old directory.
        for (name, _) in &files {
            self.os.unlink(&self.os.join(dir, name))?;
        }
        self.os.rmdir(dir)?;

        // Step 6: rename the temporary directory into place.
        self.os.rename(&tmp, dir)?;
        Ok(files.len())
    }

    /// Repairs the aftermath of a refresh that crashed between steps 5 and
    /// 6 (the paper's "nightly script that looks for a certain directory
    /// signature and patches up problems").
    ///
    /// For every `<name>.gbrefresh` under `parent`: if `<name>` no longer
    /// exists, the rename is completed; if `<name>` still exists, the
    /// refresh had not reached the destructive step, so the temporary copy
    /// is discarded. Returns the number of directories repaired.
    pub fn repair_interrupted_refresh(&self, parent: &str) -> OsResult<usize> {
        let names = self.os.list_dir(parent)?;
        let mut repaired = 0usize;
        for name in names {
            let Some(orig) = name.strip_suffix(REFRESH_SUFFIX) else {
                continue;
            };
            let tmp_path = self.os.join(parent, &name);
            if self.os.stat(&tmp_path).map(|s| s.is_dir) != Ok(true) {
                continue;
            }
            let orig_path = self.os.join(parent, orig);
            if self.os.stat(&orig_path).is_err() {
                // Crash after delete, before rename: finish the rename.
                self.os.rename(&tmp_path, &orig_path)?;
            } else {
                // Crash before the delete: the original is intact, drop the
                // partial copy.
                self.remove_tree(&tmp_path)?;
            }
            repaired += 1;
        }
        Ok(repaired)
    }

    fn copy_file(&self, src: &str, dst: &str) -> OsResult<()> {
        let src_fd = self.os.open(src)?;
        let dst_fd = self.os.create(dst)?;
        let size = self.os.file_size(src_fd)?;
        let mut buf = vec![0u8; (1u64 << 20).min(size.max(1)) as usize];
        let mut off = 0u64;
        while off < size {
            let n = self.os.read_at(src_fd, off, &mut buf)?;
            if n == 0 {
                break;
            }
            let written = self.os.write_at(dst_fd, off, &buf[..n])?;
            if written != n {
                return Err(OsError::Io("short write during refresh copy".into()));
            }
            off += n as u64;
        }
        self.os.close(src_fd)?;
        self.os.close(dst_fd)?;
        Ok(())
    }

    fn remove_tree(&self, dir: &str) -> OsResult<()> {
        let names = self.os.list_dir(dir)?;
        for name in names {
            let path = self.os.join(dir, &name);
            let stat = self.os.stat(&path)?;
            if stat.is_dir {
                self.remove_tree(&path)?;
            } else {
                self.os.unlink(&path)?;
            }
        }
        self.os.rmdir(dir)
    }
}

/// Historical tracking of how well i-number ordering is performing, to
/// answer the paper's open question of *when* to refresh (§4.2.5: "one
/// could ascertain whether the i-number ordering is performing well,
/// perhaps via historical tracking; if not, perform a refresh").
///
/// Feed it the observed time of each i-number-ordered pass over the
/// directory (normalized workloads: same file population per pass). The
/// first few observations establish a fresh-layout baseline; a refresh is
/// advised once the recent smoothed time exceeds the baseline by the
/// configured factor.
///
/// # Examples
///
/// ```
/// use graybox::fldc::RefreshAdvisor;
///
/// let mut advisor = RefreshAdvisor::new(2.0);
/// for _ in 0..4 {
///     advisor.record(1.0); // fresh directory: 1 second per pass
/// }
/// assert!(!advisor.should_refresh());
/// for _ in 0..4 {
///     advisor.record(2.5); // aged: 2.5x slower
/// }
/// assert!(advisor.should_refresh());
/// advisor.reset_after_refresh();
/// assert!(!advisor.should_refresh());
/// ```
#[derive(Debug, Clone)]
pub struct RefreshAdvisor {
    threshold: f64,
    baseline: gray_toolbox::OnlineStats,
    recent: gray_toolbox::Ewma,
    baseline_samples: u64,
}

impl RefreshAdvisor {
    /// How many initial observations form the fresh baseline.
    const BASELINE_SAMPLES: u64 = 3;

    /// Creates an advisor that recommends refreshing once recent passes
    /// run `threshold`× slower than the fresh baseline.
    ///
    /// # Panics
    ///
    /// Panics if `threshold <= 1.0` (that would advise refreshing a
    /// healthy directory).
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 1.0, "threshold must exceed 1.0");
        RefreshAdvisor {
            threshold,
            baseline: gray_toolbox::OnlineStats::new(),
            recent: gray_toolbox::Ewma::new(0.5),
            baseline_samples: Self::BASELINE_SAMPLES,
        }
    }

    /// Records one observed pass time (seconds, or any consistent unit).
    pub fn record(&mut self, seconds: f64) {
        if self.baseline.count() < self.baseline_samples {
            self.baseline.push(seconds);
        }
        self.recent.push(seconds);
    }

    /// Whether the historical record says the layout has decayed enough
    /// to be worth a refresh. Never true before the baseline is
    /// established.
    pub fn should_refresh(&self) -> bool {
        self.baseline.count() >= self.baseline_samples
            && self.recent.is_seeded()
            && self.recent.value() > self.baseline.mean() * self.threshold
    }

    /// Degradation ratio (recent / baseline); 1.0 before enough data.
    pub fn degradation(&self) -> f64 {
        if self.baseline.count() == 0 || !self.recent.is_seeded() {
            return 1.0;
        }
        let base = self.baseline.mean();
        if base <= 0.0 {
            return 1.0;
        }
        self.recent.value() / base
    }

    /// Starts a fresh baseline after the caller performed a refresh.
    pub fn reset_after_refresh(&mut self) {
        self.baseline = gray_toolbox::OnlineStats::new();
        self.recent = gray_toolbox::Ewma::new(0.5);
    }
}

/// The parent directory of a path (everything before the last `/`).
fn parent_dir(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) => "/",
        Some(i) => &path[..i],
        None => "",
    }
}

/// How FLDC maps onto the paper's technique taxonomy (Table 2).
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "FLDC",
        &[
            (
                Technique::AlgorithmicKnowledge,
                "FFS: creation order ~ layout",
            ),
            (Technique::MonitorOutputs, "i-numbers from stat()"),
            (Technique::StatisticalMethods, "None"),
            (Technique::Microbenchmarks, "None"),
            (Technique::InsertProbes, "stat() of each file"),
            (Technique::KnownState, "Directory refresh"),
            (Technique::Feedback, "None"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn techniques_include_known_state() {
        let inv = techniques();
        assert!(inv.uses(Technique::KnownState));
        assert!(!inv.uses(Technique::Feedback));
    }

    #[test]
    fn refresh_advisor_full_cycle() {
        let mut advisor = RefreshAdvisor::new(1.5);
        assert!(!advisor.should_refresh(), "no baseline yet");
        for _ in 0..3 {
            advisor.record(1.0);
        }
        assert!(!advisor.should_refresh());
        assert!((advisor.degradation() - 1.0).abs() < 0.01);
        for _ in 0..5 {
            advisor.record(2.0);
        }
        assert!(advisor.should_refresh());
        assert!(advisor.degradation() > 1.5);
        advisor.reset_after_refresh();
        assert!(!advisor.should_refresh());
        assert_eq!(advisor.degradation(), 1.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn refresh_advisor_rejects_trivial_threshold() {
        let _ = RefreshAdvisor::new(1.0);
    }

    #[test]
    fn parent_dir_cases() {
        assert_eq!(parent_dir("/a/b"), "/a");
        assert_eq!(parent_dir("/a"), "/");
        assert_eq!(parent_dir("plain"), "");
    }
}
