//! Passive observation: learning from the client's *existing* requests.
//!
//! Section 1 of the paper gives ICLs two information channels:
//! "Internally, to obtain information, the ICL may **observe the existing
//! client interactions** with the gray-box system or it may itself insert
//! **probes**." FCCD/FLDC/MAC are probe-based; this module is the other
//! channel — an interposition layer (in the spirit of Jones' toolkit the
//! paper cites) that wraps any [`GrayBoxOs`], forwards every call
//! untouched, and distills what the traffic already reveals:
//!
//! - per-file latency statistics, from which cache residency can be
//!   inferred by the same clustering FCCD uses — but at **zero probe
//!   cost** and **zero Heisenberg perturbation** beyond what the client
//!   was doing anyway;
//! - per-file sequentiality, the signal behind readahead and the access
//!   unit choice;
//! - an access log suitable for feeding the positive-feedback control
//!   loop (access what you accessed before, in the same units).
//!
//! The trade-off versus probing is the paper's: passive observation only
//! knows about data the client touched, and its residency picture ages as
//! other processes perturb the cache. Combine with sparse probes when
//! coverage matters.

use std::cell::RefCell;
use std::collections::HashMap;

use gray_toolbox::{split_fast_slow, GrayDuration, Nanos, OnlineStats};

use crate::os::{Fd, GrayBoxOs, MemRegion, OsResult, Stat};

/// Accumulated observations for one file path.
#[derive(Debug, Clone, Default)]
pub struct PathObservation {
    /// Number of read calls observed.
    pub reads: u64,
    /// Bytes read.
    pub bytes: u64,
    /// Per-read latency normalized to µs per 4 KiB (so small and large
    /// reads are comparable).
    pub latency_per_page: OnlineStats,
    /// Read calls that continued exactly where the previous one ended.
    pub sequential_reads: u64,
    /// Number of write calls observed.
    pub writes: u64,
}

impl PathObservation {
    /// Fraction of reads that were sequential continuations, in [0, 1].
    pub fn sequential_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.sequential_reads as f64 / self.reads as f64
        }
    }
}

/// A residency verdict inferred from passive traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidencyInference {
    /// Paths whose observed latencies fell in the fast cluster.
    pub looks_cached: Vec<String>,
    /// Paths in the slow cluster.
    pub looks_uncached: Vec<String>,
    /// Paths with too little traffic to judge.
    pub unknown: Vec<String>,
    /// Cluster separation in [0, 1]; low separation means the verdicts
    /// are weak (everything looked alike).
    pub separation: f64,
}

#[derive(Debug, Default)]
struct ObserverState {
    fd_paths: HashMap<u32, String>,
    fd_last_end: HashMap<u32, u64>,
    paths: HashMap<String, PathObservation>,
}

/// An interposition layer over any [`GrayBoxOs`] backend.
///
/// Every call is forwarded verbatim; reads and writes are additionally
/// timed and folded into per-path statistics. Use
/// [`PassiveObserver::observations`] for the raw record and
/// [`PassiveObserver::infer_residency`] for the FCCD-style clustering of
/// what the traffic showed.
///
/// # Examples
///
/// ```
/// use graybox::mock::MockOs;
/// use graybox::observe::PassiveObserver;
/// use graybox::os::{GrayBoxOs, GrayBoxOsExt};
///
/// let os = MockOs::new(1024, 64);
/// os.write_file("/f", b"hello").unwrap();
/// let observed = PassiveObserver::new(&os);
/// // The application uses `observed` exactly like the raw OS...
/// let data = observed.read_to_vec("/f").unwrap();
/// assert_eq!(data, b"hello");
/// // ...and the layer has learned from the traffic.
/// assert_eq!(observed.observations()["/f"].reads, 1);
/// ```
pub struct PassiveObserver<'a, O: GrayBoxOs> {
    os: &'a O,
    state: RefCell<ObserverState>,
}

impl<'a, O: GrayBoxOs> PassiveObserver<'a, O> {
    /// Wraps a backend.
    pub fn new(os: &'a O) -> Self {
        PassiveObserver {
            os,
            state: RefCell::new(ObserverState::default()),
        }
    }

    /// A snapshot of everything observed so far, keyed by path.
    pub fn observations(&self) -> HashMap<String, PathObservation> {
        self.state.borrow().paths.clone()
    }

    /// Clears the observation record (e.g. after acting on it).
    pub fn reset(&self) {
        let mut st = self.state.borrow_mut();
        st.paths.clear();
        st.fd_last_end.clear();
    }

    /// Splits observed per-path latencies into looks-cached /
    /// looks-uncached with the same [`split_fast_slow`] FCCD applies to
    /// probe times — but from free-riding on client traffic. Paths with
    /// fewer than `min_reads` observed reads are reported unknown rather
    /// than guessed. All three lists come back sorted.
    pub fn infer_residency(&self, min_reads: u64) -> ResidencyInference {
        let st = self.state.borrow();
        let mut paths: Vec<(&String, &PathObservation)> = st.paths.iter().collect();
        paths.sort_by_key(|(path, _)| *path);
        let (known, unknown): (Vec<_>, Vec<_>) = paths
            .into_iter()
            .partition(|(_, obs)| obs.reads >= min_reads && obs.latency_per_page.count() > 0);
        // `latency_per_page` is in µs; the split wants ns.
        let times: Vec<f64> = known
            .iter()
            .map(|(_, obs)| obs.latency_per_page.mean() * 1e3)
            .collect();
        let split = split_fast_slow(&times);
        let mut looks_cached = Vec::new();
        let mut looks_uncached = Vec::new();
        for ((path, _), fast) in known.into_iter().zip(split.fast) {
            if fast {
                looks_cached.push(path.clone());
            } else {
                looks_uncached.push(path.clone());
            }
        }
        ResidencyInference {
            looks_cached,
            looks_uncached,
            unknown: unknown.into_iter().map(|(path, _)| path.clone()).collect(),
            separation: split.separation,
        }
    }

    fn note_read(&self, fd: Fd, offset: u64, bytes: u64, elapsed: GrayDuration) {
        let mut st = self.state.borrow_mut();
        let Some(path) = st.fd_paths.get(&fd.0).cloned() else {
            return;
        };
        let sequential = st.fd_last_end.get(&fd.0) == Some(&offset);
        st.fd_last_end.insert(fd.0, offset + bytes);
        let obs = st.paths.entry(path).or_default();
        obs.reads += 1;
        obs.bytes += bytes;
        if sequential {
            obs.sequential_reads += 1;
        }
        if bytes > 0 {
            let per_page = elapsed.as_micros_f64() * 4096.0 / bytes as f64;
            obs.latency_per_page.push(per_page);
        }
    }
}

impl<'a, O: GrayBoxOs> GrayBoxOs for PassiveObserver<'a, O> {
    fn now(&self) -> Nanos {
        self.os.now()
    }

    fn page_size(&self) -> u64 {
        self.os.page_size()
    }

    fn open(&self, path: &str) -> OsResult<Fd> {
        let fd = self.os.open(path)?;
        self.state
            .borrow_mut()
            .fd_paths
            .insert(fd.0, path.to_string());
        Ok(fd)
    }

    fn create(&self, path: &str) -> OsResult<Fd> {
        let fd = self.os.create(path)?;
        self.state
            .borrow_mut()
            .fd_paths
            .insert(fd.0, path.to_string());
        Ok(fd)
    }

    fn close(&self, fd: Fd) -> OsResult<()> {
        let mut st = self.state.borrow_mut();
        st.fd_paths.remove(&fd.0);
        st.fd_last_end.remove(&fd.0);
        drop(st);
        self.os.close(fd)
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> OsResult<usize> {
        let t0 = self.os.now();
        let n = self.os.read_at(fd, offset, buf)?;
        let elapsed = self.os.now().since(t0);
        self.note_read(fd, offset, n as u64, elapsed);
        Ok(n)
    }

    fn read_discard(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        let t0 = self.os.now();
        let n = self.os.read_discard(fd, offset, len)?;
        let elapsed = self.os.now().since(t0);
        self.note_read(fd, offset, n, elapsed);
        Ok(n)
    }

    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> OsResult<usize> {
        let n = self.os.write_at(fd, offset, data)?;
        let mut st = self.state.borrow_mut();
        if let Some(path) = st.fd_paths.get(&fd.0).cloned() {
            st.paths.entry(path).or_default().writes += 1;
        }
        Ok(n)
    }

    fn write_fill(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        let n = self.os.write_fill(fd, offset, len)?;
        let mut st = self.state.borrow_mut();
        if let Some(path) = st.fd_paths.get(&fd.0).cloned() {
            st.paths.entry(path).or_default().writes += 1;
        }
        Ok(n)
    }

    fn file_size(&self, fd: Fd) -> OsResult<u64> {
        self.os.file_size(fd)
    }

    fn sync(&self) -> OsResult<()> {
        self.os.sync()
    }

    fn stat(&self, path: &str) -> OsResult<Stat> {
        self.os.stat(path)
    }

    fn list_dir(&self, path: &str) -> OsResult<Vec<String>> {
        self.os.list_dir(path)
    }

    fn mkdir(&self, path: &str) -> OsResult<()> {
        self.os.mkdir(path)
    }

    fn rmdir(&self, path: &str) -> OsResult<()> {
        self.os.rmdir(path)
    }

    fn unlink(&self, path: &str) -> OsResult<()> {
        self.os.unlink(path)
    }

    fn rename(&self, from: &str, to: &str) -> OsResult<()> {
        self.os.rename(from, to)
    }

    fn set_times(&self, path: &str, atime: Nanos, mtime: Nanos) -> OsResult<()> {
        self.os.set_times(path, atime, mtime)
    }

    fn mem_alloc(&self, bytes: u64) -> OsResult<MemRegion> {
        self.os.mem_alloc(bytes)
    }

    fn mem_free(&self, region: MemRegion) -> OsResult<()> {
        self.os.mem_free(region)
    }

    fn mem_touch_write(&self, region: MemRegion, page: u64) -> OsResult<()> {
        self.os.mem_touch_write(region, page)
    }

    fn mem_touch_read(&self, region: MemRegion, page: u64) -> OsResult<u8> {
        self.os.mem_touch_read(region, page)
    }

    fn compute(&self, work: GrayDuration) {
        self.os.compute(work);
    }

    fn sleep(&self, d: GrayDuration) {
        self.os.sleep(d);
    }

    fn yield_now(&self) {
        self.os.yield_now();
    }
}

/// How the passive observer maps onto the technique taxonomy.
pub fn techniques() -> crate::technique::TechniqueInventory {
    crate::technique::TechniqueInventory::new(
        "Passive observer",
        &[
            (
                crate::technique::Technique::AlgorithmicKnowledge,
                "Latency reveals cache state",
            ),
            (
                crate::technique::Technique::MonitorOutputs,
                "Times the client's own reads",
            ),
            (
                crate::technique::Technique::StatisticalMethods,
                "Per-path stats + clustering",
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockOs;
    use crate::os::GrayBoxOsExt;

    #[test]
    fn forwarding_is_transparent() {
        let os = MockOs::new(1024, 64);
        let observed = PassiveObserver::new(&os);
        observed.mkdir("/d").unwrap();
        observed.write_file("/d/f", b"payload").unwrap();
        assert_eq!(observed.read_to_vec("/d/f").unwrap(), b"payload");
        observed.rename("/d/f", "/d/g").unwrap();
        assert_eq!(os.read_to_vec("/d/g").unwrap(), b"payload");
        assert_eq!(observed.stat("/d/g").unwrap().size, 7);
    }

    #[test]
    fn records_reads_bytes_and_writes() {
        let os = MockOs::new(1024, 64);
        let observed = PassiveObserver::new(&os);
        observed.write_file("/f", &vec![1u8; 10_000]).unwrap();
        let fd = observed.open("/f").unwrap();
        let mut buf = vec![0u8; 4096];
        observed.read_at(fd, 0, &mut buf).unwrap();
        observed.read_at(fd, 4096, &mut buf).unwrap();
        observed.close(fd).unwrap();
        let obs = observed.observations();
        let f = &obs["/f"];
        assert_eq!(f.reads, 2);
        assert_eq!(f.bytes, 8192);
        assert_eq!(f.writes, 1);
    }

    #[test]
    fn detects_sequentiality() {
        let os = MockOs::new(1024, 64);
        let observed = PassiveObserver::new(&os);
        observed.write_file("/seq", &vec![0u8; 64 << 10]).unwrap();
        observed.write_file("/rand", &vec![0u8; 64 << 10]).unwrap();
        let fd = observed.open("/seq").unwrap();
        for i in 0..8u64 {
            observed.read_discard(fd, i * 8192, 8192).unwrap();
        }
        observed.close(fd).unwrap();
        let fd = observed.open("/rand").unwrap();
        for i in [5u64, 1, 7, 2, 6, 0, 3, 4] {
            observed.read_discard(fd, i * 8192, 8192).unwrap();
        }
        observed.close(fd).unwrap();
        let obs = observed.observations();
        assert!(obs["/seq"].sequential_fraction() > 0.8);
        assert!(obs["/rand"].sequential_fraction() < 0.3);
    }

    #[test]
    fn residency_inference_matches_cache_state() {
        let os = MockOs::new(1 << 20, 64);
        let observed = PassiveObserver::new(&os);
        for i in 0..6 {
            observed
                .write_file(&format!("/f{i}"), &vec![0u8; 32 << 10])
                .unwrap();
        }
        os.flush_cache();
        os.warm("/f1", 0..8);
        os.warm("/f4", 0..8);
        // The "application" reads every file once; the observer watches.
        for i in 0..6 {
            let fd = observed.open(&format!("/f{i}")).unwrap();
            observed.read_discard(fd, 0, 32 << 10).unwrap();
            observed.close(fd).unwrap();
        }
        let inference = observed.infer_residency(1);
        assert_eq!(inference.looks_cached, vec!["/f1", "/f4"]);
        assert_eq!(inference.looks_uncached.len(), 4);
        assert!(inference.separation > 0.9);
        assert!(inference.unknown.is_empty());
    }

    #[test]
    fn thin_traffic_is_reported_unknown_not_guessed() {
        let os = MockOs::new(1024, 64);
        let observed = PassiveObserver::new(&os);
        observed.write_file("/seen", &vec![0u8; 8192]).unwrap();
        observed.write_file("/unseen", &vec![0u8; 8192]).unwrap();
        let fd = observed.open("/seen").unwrap();
        observed.read_discard(fd, 0, 8192).unwrap();
        observed.close(fd).unwrap();
        let inference = observed.infer_residency(3);
        assert!(inference.looks_cached.is_empty());
        // "/unseen" entered the record through its creation write but was
        // never read, so it is unknown as well — never guessed. The list is
        // sorted, not in hash-map order.
        assert_eq!(inference.unknown, vec!["/seen", "/unseen"]);
    }

    #[test]
    fn all_alike_traffic_yields_no_verdicts() {
        let os = MockOs::new(1 << 20, 64);
        let observed = PassiveObserver::new(&os);
        for i in 0..4 {
            observed
                .write_file(&format!("/f{i}"), &vec![0u8; 16 << 10])
                .unwrap();
        }
        os.flush_cache();
        for i in 0..4 {
            let fd = observed.open(&format!("/f{i}")).unwrap();
            observed.read_discard(fd, 0, 16 << 10).unwrap();
            observed.close(fd).unwrap();
        }
        let inference = observed.infer_residency(1);
        assert!(
            inference.looks_cached.is_empty(),
            "uniformly cold traffic must not split: {inference:?}"
        );
    }

    #[test]
    fn reset_clears_the_record() {
        let os = MockOs::new(1024, 64);
        let observed = PassiveObserver::new(&os);
        observed.write_file("/f", b"x").unwrap();
        assert!(!observed.observations().is_empty());
        observed.reset();
        assert!(observed.observations().is_empty());
    }

    #[test]
    fn taxonomy_marks_no_probes() {
        let inv = techniques();
        assert!(inv.uses(crate::technique::Technique::MonitorOutputs));
        assert!(!inv.uses(crate::technique::Technique::InsertProbes));
    }
}
