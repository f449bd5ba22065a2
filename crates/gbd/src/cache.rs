//! The daemon's inference cache and its pluggable staleness policies.
//!
//! An inference is a *perishable* fact: "these files were resident" is
//! true at the instant the probes ran and decays as the OS keeps working.
//! The cache therefore stores each reply with the virtual time it was
//! inferred at, and a [`StalenessPolicy`] decides both halves of the
//! freshness question:
//!
//! - **at lookup** — is this entry still servable, or has it aged out
//!   ([`StalenessPolicy::disposition`])?
//! - **at observation** — a fresh probe pass just produced per-file
//!   verdicts; which cached entries does it contradict
//!   ([`StalenessPolicy::invalidated_by`])?
//!
//! [`TtlOnly`] answers only the first: entries live exactly their TTL and
//! observed churn is ignored, so a stale answer is served until expiry.
//! [`ChurnAware`] adds the second: any cached entry whose per-file
//! verdict disagrees with fresher evidence is evicted immediately (and
//! the daemon re-infers it). The TTL backstop still applies — churn can
//! only be observed for files some query touches, so unqueried corners
//! age out rather than live forever.

use std::collections::BTreeMap;

use gray_toolbox::{GrayDuration, Nanos};

use crate::daemon::{Query, Reply};

/// One cached inference.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The query that produced the reply (re-run on churn re-inference).
    pub query: Query,
    /// The inferred answer.
    pub reply: Reply,
    /// Virtual time the inference completed.
    pub stored_at: Nanos,
    /// Per-file residency verdicts backing the reply (`true` = predicted
    /// cached). Empty for non-FCCD entries; churn detection joins fresh
    /// verdicts against these.
    pub verdicts: BTreeMap<String, bool>,
}

/// A policy's lookup-time judgement of an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Servable as-is.
    Fresh,
    /// Aged out; the daemon drops it and re-infers.
    Expired,
}

/// How cached inferences go stale. Pluggable: the daemon takes a boxed
/// policy at construction and consults it on every lookup and after every
/// fresh probe pass.
pub trait StalenessPolicy: std::fmt::Debug + Send {
    /// Short policy name for stats and traces.
    fn name(&self) -> &'static str;

    /// Lookup-time freshness of `entry` at virtual time `now`.
    fn disposition(&self, entry: &CacheEntry, now: Nanos) -> Disposition;

    /// Cache keys contradicted by a fresh probe pass's per-file verdicts.
    /// Called once per serve tick with every verdict the tick produced.
    fn invalidated_by(&self, cache: &InferenceCache, fresh: &BTreeMap<String, bool>)
        -> Vec<String>;
}

/// Serve every entry until its TTL elapses, churn or no churn.
///
/// The TTL boundary is **inclusive**: an entry is servable through
/// `age == ttl` exactly and expires at `age == ttl + 1` nanoseconds.
/// An entry stamped *after* `now` (clock skew across tenant lanes) is
/// treated as stale outright — the old saturating age arithmetic pinned
/// such an entry's age at zero, making it immortal.
#[derive(Debug, Clone, Copy)]
pub struct TtlOnly {
    /// Entry lifetime in virtual time.
    pub ttl: GrayDuration,
}

impl StalenessPolicy for TtlOnly {
    fn name(&self) -> &'static str {
        "ttl-only"
    }

    fn disposition(&self, entry: &CacheEntry, now: Nanos) -> Disposition {
        if entry.stored_at.0 > now.0 {
            // Stored "in the future": the stamp can't be trusted, and a
            // saturated age of zero must not grant eternal freshness.
            return Disposition::Expired;
        }
        if now.0 - entry.stored_at.0 > self.ttl.as_nanos() {
            Disposition::Expired
        } else {
            Disposition::Fresh
        }
    }

    fn invalidated_by(&self, _: &InferenceCache, _: &BTreeMap<String, bool>) -> Vec<String> {
        Vec::new()
    }
}

/// TTL plus invalidation-on-observed-churn: when a fresh probe pass
/// contradicts a cached entry's verdict for any overlapping file, the
/// entry is evicted (and the daemon re-infers it) instead of waiting for
/// the TTL.
#[derive(Debug, Clone, Copy)]
pub struct ChurnAware {
    /// Backstop entry lifetime in virtual time.
    pub ttl: GrayDuration,
}

impl StalenessPolicy for ChurnAware {
    fn name(&self) -> &'static str {
        "churn-aware"
    }

    fn disposition(&self, entry: &CacheEntry, now: Nanos) -> Disposition {
        TtlOnly { ttl: self.ttl }.disposition(entry, now)
    }

    fn invalidated_by(
        &self,
        cache: &InferenceCache,
        fresh: &BTreeMap<String, bool>,
    ) -> Vec<String> {
        cache
            .iter()
            .filter(|(_, entry)| {
                entry
                    .verdicts
                    .iter()
                    .any(|(path, verdict)| fresh.get(path).is_some_and(|f| f != verdict))
            })
            .map(|(key, _)| key.to_string())
            .collect()
    }
}

/// The cache proper: query fingerprint → entry, with hit/miss accounting
/// and a capacity bound.
///
/// A long-running daemon sees an unbounded stream of distinct query
/// fingerprints; without a bound the cache grows forever. Inserting past
/// `capacity` evicts the **oldest-stamped** entries (ties broken by
/// smallest key, so eviction is deterministic) — the entry nearest its
/// TTL anyway, making this the cheapest-regret choice.
#[derive(Debug)]
pub struct InferenceCache {
    entries: BTreeMap<String, CacheEntry>,
    capacity: usize,
}

impl Default for InferenceCache {
    fn default() -> Self {
        InferenceCache {
            entries: BTreeMap::new(),
            capacity: usize::MAX,
        }
    }
}

/// What a lookup found.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A fresh entry's reply. Its lists are the entry's own, shared: the
    /// clone that hands it out bumps reference counts and copies nothing.
    Hit(Reply),
    /// An entry existed but the policy aged it out (it has been removed).
    Expired,
    /// Nothing cached under the key.
    Miss,
}

impl InferenceCache {
    /// Creates an empty, effectively unbounded cache.
    pub fn new() -> Self {
        InferenceCache::default()
    }

    /// Creates an empty cache bounded to `capacity` entries (clamped to
    /// at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        InferenceCache {
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Consults the cache under `policy` at virtual time `now`. Expired
    /// entries are removed as a side effect.
    pub fn lookup(&mut self, key: &str, now: Nanos, policy: &dyn StalenessPolicy) -> Lookup {
        match self.entries.get(key) {
            None => Lookup::Miss,
            Some(entry) => match policy.disposition(entry, now) {
                Disposition::Fresh => Lookup::Hit(entry.reply.clone()),
                Disposition::Expired => {
                    self.entries.remove(key);
                    Lookup::Expired
                }
            },
        }
    }

    /// Stores (or replaces) an entry, then evicts oldest-stamped entries
    /// until the capacity holds again. Returns the evicted keys (in
    /// eviction order) so the daemon can count and trace them. If the
    /// incoming entry carries the oldest stamp of all, it is itself the
    /// eviction victim — deterministic, and correct for a stamp that far
    /// behind the rest of the cache.
    pub fn insert(&mut self, key: String, entry: CacheEntry) -> Vec<String> {
        self.entries.insert(key, entry);
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by(|(ka, ea), (kb, eb)| {
                    ea.stored_at.cmp(&eb.stored_at).then_with(|| ka.cmp(kb))
                })
                .map(|(k, _)| k.clone())
                .expect("cache is over capacity, so non-empty");
            self.entries.remove(&victim);
            evicted.push(victim);
        }
        evicted
    }

    /// Removes an entry, returning it if present.
    pub fn remove(&mut self, key: &str) -> Option<CacheEntry> {
        self.entries.remove(key)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, entry)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CacheEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(stored_at: u64, verdicts: &[(&str, bool)]) -> CacheEntry {
        CacheEntry {
            query: Query::FccdClassify { files: Vec::new() },
            reply: Reply::Available { bytes: 1 },
            stored_at: Nanos(stored_at),
            verdicts: verdicts.iter().map(|(p, v)| (p.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn ttl_only_expires_by_age_and_ignores_churn() {
        let policy = TtlOnly {
            ttl: GrayDuration::from_nanos(100),
        };
        let mut cache = InferenceCache::new();
        cache.insert("k".to_string(), entry(1000, &[("/f", true)]));
        assert!(matches!(
            cache.lookup("k", Nanos(1100), &policy),
            Lookup::Hit(_)
        ));
        // Contradicting evidence does nothing under TTL-only.
        let fresh: BTreeMap<String, bool> = [("/f".to_string(), false)].into_iter().collect();
        assert!(policy.invalidated_by(&cache, &fresh).is_empty());
        // One nanosecond past the TTL the entry is gone.
        assert_eq!(cache.lookup("k", Nanos(1101), &policy), Lookup::Expired);
        assert_eq!(cache.lookup("k", Nanos(1101), &policy), Lookup::Miss);
    }

    #[test]
    fn ttl_boundary_is_inclusive() {
        let policy = TtlOnly {
            ttl: GrayDuration::from_nanos(100),
        };
        let e = entry(1000, &[]);
        // Servable through age == ttl exactly …
        assert_eq!(policy.disposition(&e, Nanos(1000)), Disposition::Fresh);
        assert_eq!(policy.disposition(&e, Nanos(1100)), Disposition::Fresh);
        // … and expired one nanosecond later.
        assert_eq!(policy.disposition(&e, Nanos(1101)), Disposition::Expired);
    }

    #[test]
    fn future_stored_entry_is_stale_not_immortal() {
        // Regression: `saturating_sub` pinned a future-stamped entry's
        // age at zero, so it could never expire — it outlived every
        // legitimate entry in the cache.
        let policy = TtlOnly {
            ttl: GrayDuration::from_nanos(100),
        };
        let mut cache = InferenceCache::new();
        cache.insert("skewed".to_string(), entry(5000, &[]));
        assert_eq!(
            policy.disposition(&entry(5000, &[]), Nanos(4999)),
            Disposition::Expired
        );
        assert_eq!(
            cache.lookup("skewed", Nanos(4999), &policy),
            Lookup::Expired
        );
        assert_eq!(cache.lookup("skewed", Nanos(4999), &policy), Lookup::Miss);
        // ChurnAware delegates its TTL half to TtlOnly and inherits the fix.
        let churn = ChurnAware {
            ttl: GrayDuration::from_nanos(100),
        };
        assert_eq!(
            churn.disposition(&entry(5000, &[]), Nanos(4999)),
            Disposition::Expired
        );
    }

    #[test]
    fn capacity_evicts_oldest_stamp_first() {
        let mut cache = InferenceCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        assert!(cache
            .insert("young".to_string(), entry(300, &[]))
            .is_empty());
        assert!(cache.insert("old".to_string(), entry(100, &[])).is_empty());
        // Third entry: the oldest stamp ("old") goes, not the newest key.
        let evicted = cache.insert("mid".to_string(), entry(200, &[]));
        assert_eq!(evicted, vec!["old".to_string()]);
        assert_eq!(cache.len(), 2);
        assert!(cache.iter().any(|(k, _)| k == "young"));
        assert!(cache.iter().any(|(k, _)| k == "mid"));
    }

    #[test]
    fn capacity_tie_breaks_on_smallest_key() {
        let mut cache = InferenceCache::with_capacity(2);
        cache.insert("b".to_string(), entry(100, &[]));
        cache.insert("a".to_string(), entry(100, &[]));
        let evicted = cache.insert("c".to_string(), entry(100, &[]));
        assert_eq!(evicted, vec!["a".to_string()]);
    }

    #[test]
    fn replacement_does_not_evict() {
        let mut cache = InferenceCache::with_capacity(2);
        cache.insert("a".to_string(), entry(100, &[]));
        cache.insert("b".to_string(), entry(200, &[]));
        // Replacing an existing key keeps the cache at capacity.
        let evicted = cache.insert("a".to_string(), entry(300, &[]));
        assert!(evicted.is_empty());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn unbounded_default_never_evicts() {
        let mut cache = InferenceCache::new();
        for i in 0..100 {
            assert!(cache.insert(format!("k{i}"), entry(i, &[])).is_empty());
        }
        assert_eq!(cache.len(), 100);
    }

    #[test]
    fn churn_aware_invalidates_contradicted_entries_only() {
        let policy = ChurnAware {
            ttl: GrayDuration::from_millis(10),
        };
        let mut cache = InferenceCache::new();
        cache.insert("a".to_string(), entry(0, &[("/f", true), ("/g", false)]));
        cache.insert("b".to_string(), entry(0, &[("/g", false)]));
        cache.insert("c".to_string(), entry(0, &[("/h", true)]));
        // Fresh pass agrees about /g, flips /f, says nothing about /h.
        let fresh: BTreeMap<String, bool> = [("/f".to_string(), false), ("/g".to_string(), false)]
            .into_iter()
            .collect();
        let invalidated = policy.invalidated_by(&cache, &fresh);
        assert_eq!(invalidated, vec!["a".to_string()]);
    }
}
