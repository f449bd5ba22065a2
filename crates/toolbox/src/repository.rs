//! The shared microbenchmark parameter repository.
//!
//! Section 5: "all of our microbenchmarks report performance numbers (e.g.,
//! expected disk seek time, expected disk bandwidth, time for the OS to
//! allocate and zero a page, time to access a page in memory, time to access
//! a page on disk) in a common format kept in persistent storage; each
//! microbenchmark then only needs to be run once". This module is that
//! common format: a flat, human-readable `key = value` file with typed
//! accessors.
//!
//! The format is deliberately trivial (one `key = value` per line, `#`
//! comments) so that it stays greppable and editable, and so the toolbox
//! needs no serialization dependency beyond `std`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::time::Duration;

/// Well-known repository keys, shared between the microbenchmarks that
/// write them and the ICLs that read them.
pub mod keys {
    /// Expected disk seek time, in nanoseconds.
    pub const DISK_SEEK_NS: &str = "disk.seek_ns";
    /// Expected sequential disk bandwidth, in bytes per second.
    pub const DISK_BANDWIDTH_BPS: &str = "disk.bandwidth_bps";
    /// Time to read one page that is resident in the file cache, ns.
    pub const PAGE_CACHED_READ_NS: &str = "cache.page_hit_ns";
    /// Time to read one page from disk through the file cache, ns.
    pub const PAGE_UNCACHED_READ_NS: &str = "cache.page_miss_ns";
    /// Time for the OS to allocate and zero a fresh memory page, ns.
    pub const PAGE_ALLOC_ZERO_NS: &str = "mem.page_alloc_zero_ns";
    /// Time to touch a resident memory page, ns.
    pub const PAGE_TOUCH_NS: &str = "mem.page_touch_ns";
    /// Access unit delivering near-peak sequential disk bandwidth, bytes.
    pub const ACCESS_UNIT_BYTES: &str = "fccd.access_unit_bytes";
    /// System page size, bytes.
    pub const PAGE_SIZE_BYTES: &str = "os.page_size_bytes";
}

/// Errors produced by repository operations.
#[derive(Debug)]
pub enum RepositoryError {
    /// Filesystem error while loading or saving.
    Io(io::Error),
    /// A line did not parse as `key = value`.
    Malformed {
        /// 1-based line number of the malformed line.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A value existed but did not parse as the requested type.
    BadValue {
        /// The key whose value failed to parse.
        key: String,
        /// The stored raw text.
        value: String,
    },
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepositoryError::Io(e) => write!(f, "repository I/O error: {e}"),
            RepositoryError::Malformed { line, text } => {
                write!(f, "malformed repository line {line}: {text:?}")
            }
            RepositoryError::BadValue { key, value } => {
                write!(
                    f,
                    "repository value for {key:?} is not parseable: {value:?}"
                )
            }
        }
    }
}

impl std::error::Error for RepositoryError {}

impl From<io::Error> for RepositoryError {
    fn from(e: io::Error) -> Self {
        RepositoryError::Io(e)
    }
}

/// A persistent map of measured system parameters.
///
/// # Examples
///
/// ```
/// use gray_toolbox::{ParamRepository, repository::keys};
/// use gray_toolbox::GrayDuration;
///
/// let mut repo = ParamRepository::in_memory();
/// repo.set_duration(keys::DISK_SEEK_NS, GrayDuration::from_millis(5));
/// assert_eq!(
///     repo.get_duration(keys::DISK_SEEK_NS).unwrap(),
///     Some(GrayDuration::from_millis(5)),
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamRepository {
    entries: BTreeMap<String, String>,
    path: Option<PathBuf>,
}

impl ParamRepository {
    /// Creates an empty repository with no backing file.
    pub fn in_memory() -> Self {
        ParamRepository::default()
    }

    /// Loads a repository from `path`; a missing file yields an empty
    /// repository bound to that path (so the first `save` creates it).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, RepositoryError> {
        let path = path.as_ref().to_path_buf();
        let mut repo = ParamRepository {
            entries: BTreeMap::new(),
            path: Some(path.clone()),
        };
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(repo),
            Err(e) => return Err(e.into()),
        };
        repo.parse(&text)?;
        Ok(repo)
    }

    /// Parses repository text into this repository, replacing duplicates.
    fn parse(&mut self, text: &str) -> Result<(), RepositoryError> {
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(RepositoryError::Malformed {
                    line: idx + 1,
                    text: raw.to_string(),
                });
            };
            self.entries
                .insert(key.trim().to_string(), value.trim().to_string());
        }
        Ok(())
    }

    /// Serializes the repository to its on-disk format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# gray-toolbox parameter repository\n");
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }

    /// Writes the repository back to the path it was loaded from.
    ///
    /// Returns an error if the repository was created with
    /// [`ParamRepository::in_memory`].
    pub fn save(&self) -> Result<(), RepositoryError> {
        let Some(path) = &self.path else {
            return Err(RepositoryError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "in-memory repository has no backing file",
            )));
        };
        self.save_to(path)
    }

    /// Writes the repository to an explicit path (atomically, via a
    /// temporary sibling file).
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<(), RepositoryError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_text())?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Raw string lookup.
    pub fn get_raw(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Stores a raw string value.
    pub fn set_raw(&mut self, key: &str, value: impl fmt::Display) {
        self.entries.insert(key.to_string(), value.to_string());
    }

    /// Removes a key, returning whether it was present.
    pub fn remove(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Typed lookup of an `f64` parameter.
    pub fn get_f64(&self, key: &str) -> Result<Option<f64>, RepositoryError> {
        self.typed(key, str::parse::<f64>)
    }

    /// Typed lookup of a `u64` parameter.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, RepositoryError> {
        self.typed(key, str::parse::<u64>)
    }

    /// Typed lookup of a duration stored as nanoseconds.
    pub fn get_duration(&self, key: &str) -> Result<Option<Duration>, RepositoryError> {
        Ok(self.get_u64(key)?.map(Duration::from_nanos))
    }

    /// Stores a duration as nanoseconds.
    pub fn set_duration(&mut self, key: &str, value: Duration) {
        self.set_raw(key, value.as_nanos());
    }

    /// The number of stored parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, raw value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    fn typed<T, E>(
        &self,
        key: &str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<T>, RepositoryError> {
        match self.entries.get(key) {
            None => {
                // A miss is legal — every caller has a built-in default —
                // but it means the caller runs uncalibrated, which used to
                // be invisible. Leave a trace event (and, in debug builds,
                // one stderr note per key) so stale-default reads show up.
                crate::trace::emit_with(|| crate::trace::TraceEvent::RepositoryMiss {
                    key: key.to_string(),
                });
                report_miss_once(key);
                Ok(None)
            }
            Some(raw) => parse(raw).map(Some).map_err(|_| RepositoryError::BadValue {
                key: key.to_string(),
                value: raw.clone(),
            }),
        }
    }
}

/// In debug builds, prints one note per missing key per process. Release
/// builds stay silent (the trace event still fires when tracing is on).
fn report_miss_once(key: &str) {
    if !cfg!(debug_assertions) {
        return;
    }
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static REPORTED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let reported = REPORTED.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut set = match reported.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if set.insert(key.to_string()) {
        eprintln!(
            "gray-toolbox: repository key `{key}` read before calibration \
             wrote it; caller falls back to its built-in default"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let mut repo = ParamRepository::in_memory();
        repo.set_raw(keys::DISK_SEEK_NS, 5_300_000u64);
        repo.set_raw("custom.note", "hello world");
        let text = repo.to_text();
        let mut reloaded = ParamRepository::in_memory();
        reloaded.parse(&text).unwrap();
        assert_eq!(
            reloaded.get_u64(keys::DISK_SEEK_NS).unwrap(),
            Some(5_300_000)
        );
        assert_eq!(reloaded.get_raw("custom.note"), Some("hello world"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let mut repo = ParamRepository::in_memory();
        repo.parse("# comment\n\n a = 1 \n").unwrap();
        assert_eq!(repo.get_u64("a").unwrap(), Some(1));
    }

    #[test]
    fn malformed_line_is_reported_with_position() {
        let mut repo = ParamRepository::in_memory();
        let err = repo.parse("a = 1\nbogus line\n").unwrap_err();
        match err {
            RepositoryError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn bad_value_is_a_typed_error() {
        let mut repo = ParamRepository::in_memory();
        repo.set_raw("x", "not a number");
        assert!(repo.get_u64("x").is_err());
        assert_eq!(repo.get_raw("x"), Some("not a number"));
    }

    #[test]
    fn missing_key_is_none_not_error() {
        let repo = ParamRepository::in_memory();
        assert_eq!(repo.get_f64("nope").unwrap(), None);
    }

    #[test]
    fn missing_key_emits_trace_event() {
        use crate::trace::{self, TraceEvent};
        let _guard = trace::capture();
        let repo = ParamRepository::in_memory();
        assert_eq!(repo.get_u64("fccd.uncalibrated_key").unwrap(), None);
        let events: Vec<TraceEvent> = trace::drain().into_iter().map(|r| r.event).collect();
        assert_eq!(
            events,
            [TraceEvent::RepositoryMiss {
                key: "fccd.uncalibrated_key".to_string()
            }]
        );
    }

    #[test]
    fn durations_round_trip() {
        let mut repo = ParamRepository::in_memory();
        repo.set_duration("d", Duration::from_micros(7));
        assert_eq!(
            repo.get_duration("d").unwrap(),
            Some(Duration::from_micros(7))
        );
    }

    #[test]
    fn save_and_load_through_disk() {
        let dir = std::env::temp_dir().join(format!("graytb-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.repo");
        let mut repo = ParamRepository::load(&path).unwrap();
        assert!(repo.is_empty());
        repo.set_raw("k", 42u32);
        repo.save().unwrap();
        let reloaded = ParamRepository::load(&path).unwrap();
        assert_eq!(reloaded.get_u64("k").unwrap(), Some(42));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_save_is_an_error() {
        let repo = ParamRepository::in_memory();
        assert!(repo.save().is_err());
    }

    #[test]
    fn remove_works() {
        let mut repo = ParamRepository::in_memory();
        repo.set_raw("k", 1);
        assert!(repo.remove("k"));
        assert!(!repo.remove("k"));
        assert!(repo.is_empty());
    }
}
