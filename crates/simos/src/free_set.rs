//! Free space as extents: the one free-space structure of the simulator.
//!
//! A cylinder group's free data blocks, its free i-numbers and the VM's
//! free swap slots are all "a set of integers that starts as one
//! contiguous range and is nibbled at". Kept element by element, booting
//! a machine costs what its disks could hold; kept as maximal runs, an
//! untouched range is a single entry however large it is, and the set
//! only grows with *fragmentation* — every extra run needs a taken
//! element on each side, so a set of `n` elements with `k` of them taken
//! never holds more than `min(k + 1, n - k)` runs.
//!
//! The allocators ask exactly four questions — is `x` free (and take
//! it), what is the lowest free element, what is the lowest free element
//! at or after the rotor, and how many are free — and each is one
//! ordered-map probe here, answering with the same element an ordered
//! set of the individual integers would. Space comes back by extent: a
//! deleted file's blocks and a dead region's swap slots are returned one
//! maximal contiguous range at a time ([`FreeSet::insert_range`]), a few
//! probes a range however long it is.
//!
//! Runs are keyed by their *end*. Allocation eats runs from the front —
//! the near-hint extends a file into the run that follows it, the rotor
//! and lowest-first take a run's first element — and with the end as the
//! key that only moves the stored start: no entry is removed or added,
//! where a start-keyed map would re-key the run for every block written.
//! The same holds for a range given back just below a run.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// A set of `u64`s kept as disjoint, non-adjacent half-open runs (so two
/// sets are equal exactly when their runs are).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FreeSet {
    /// `end` (exclusive) `-> start` of every maximal run.
    runs: BTreeMap<u64, u64>,
    /// Elements in the set: the sum of the run lengths.
    len: u64,
}

impl FreeSet {
    /// The set `[start, end)`; empty when `end <= start`.
    pub(crate) fn new(start: u64, end: u64) -> Self {
        let mut runs = BTreeMap::new();
        if start < end {
            runs.insert(end, start);
        }
        FreeSet {
            runs,
            len: end.saturating_sub(start),
        }
    }

    /// Number of elements in the set.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The lowest element.
    pub(crate) fn first(&self) -> Option<u64> {
        self.runs.values().next().copied()
    }

    /// The lowest element at or after `from`.
    pub(crate) fn first_from(&self, from: u64) -> Option<u64> {
        // The first run that ends after `from` either holds it or lies
        // wholly above it.
        let (_, &start) = self.runs.range((Excluded(from), Unbounded)).next()?;
        Some(start.max(from))
    }

    /// Removes `x`; `false` if it was not in the set.
    pub(crate) fn take(&mut self, x: u64) -> bool {
        let Some((&end, start)) = self.runs.range_mut((Excluded(x), Unbounded)).next() else {
            return false;
        };
        let run_start = *start;
        if x < run_start {
            return false;
        }
        if x + 1 < end {
            // The run keeps its end and now starts after `x`.
            *start = x + 1;
        } else {
            self.runs.remove(&end);
        }
        if run_start < x {
            // What lay below `x` is a run of its own, ending at `x`.
            self.runs.insert(x, run_start);
        }
        self.len -= 1;
        true
    }

    /// Adds `x`, merging it with the runs it touches; `false` if it was
    /// already in the set.
    pub(crate) fn insert(&mut self, x: u64) -> bool {
        assert!(x < u64::MAX, "run ends are exclusive");
        // A run ending at `x` grows upwards over it ...
        let below = self.runs.get(&x).copied();
        let start = below.unwrap_or(x);
        match self.runs.range_mut((Excluded(x), Unbounded)).next() {
            Some((_, above)) if *above <= x => return false,
            // ... a run starting just after `x` grows downwards, over `x`
            // and over the run below it ...
            Some((_, above)) if *above == x + 1 => *above = start,
            // ... and otherwise `x` ends a run.
            _ => {
                self.runs.insert(x + 1, start);
            }
        }
        if below.is_some() {
            self.runs.remove(&x);
        }
        self.len += 1;
        true
    }

    /// Adds every element of `[start, end)`, merging the runs it overlaps
    /// or touches into one; returns how many elements were not already in
    /// the set. The same set as inserting them one by one.
    pub(crate) fn insert_range(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let mut added = end - start;
        // A run ending at `start` grows upwards over the range, the runs
        // ending inside it are swallowed, and a run ending at or past
        // `end` that starts by `end` grows downwards over all of them.
        let mut low = self.runs.remove(&start).unwrap_or(start);
        loop {
            match self.runs.range_mut((Excluded(start), Unbounded)).next() {
                Some((&run_end, run_start)) if *run_start <= end => {
                    added -= run_end.min(end) - (*run_start).max(start);
                    low = low.min(*run_start);
                    if run_end >= end {
                        *run_start = low;
                        break;
                    }
                    self.runs.remove(&run_end);
                }
                _ => {
                    self.runs.insert(end, low);
                    break;
                }
            }
        }
        self.len += added;
        added
    }
}

#[cfg(test)]
mod tests {
    //! `FreeSet` against the structure it replaced. The reference is a
    //! plain `BTreeSet<u64>` of the individual elements — exactly what
    //! `fs::Group` and `vm::Vm` used to hold — so every answer an
    //! allocator can observe is compared with the old answer, after every
    //! operation, and the run invariants are checked alongside.
    //!
    //! CI runs this with `PROP_CASES=500`; `PROP_SEED` replays one case.

    use std::collections::BTreeSet;

    use gray_toolbox::prop::{check, Gen};

    use super::FreeSet;

    fn assert_invariants(set: &FreeSet, model: &BTreeSet<u64>) {
        let mut prev_end = None;
        let mut total = 0;
        for (&end, &start) in &set.runs {
            assert!(start < end, "empty run [{start}, {end})");
            if let Some(prev) = prev_end {
                assert!(prev < start, "runs touch or overlap at {start}");
            }
            prev_end = Some(end);
            total += end - start;
        }
        assert_eq!(set.len, total, "len is the sum of the run lengths");
        assert_eq!(set.len(), model.len() as u64);
        assert!(
            set.runs.len() as u64 <= set.len.min(model_gaps(model) + 1),
            "more runs than fragmentation allows"
        );
    }

    /// Holes strictly inside the model's span: each can end at most one run.
    fn model_gaps(model: &BTreeSet<u64>) -> u64 {
        match (model.first(), model.last()) {
            (Some(&lo), Some(&hi)) => hi - lo + 1 - model.len() as u64,
            _ => 0,
        }
    }

    /// One random value around `[lo, hi)`: mostly inside, sometimes on an
    /// edge, sometimes outside the range the set started as.
    fn value(g: &mut Gen, lo: u64, hi: u64) -> u64 {
        match g.usize(0..10) {
            0 => lo.saturating_sub(g.u64(1..4)),
            1 => hi + g.u64(0..4),
            2 => lo,
            3 => hi.saturating_sub(1),
            _ => g.u64(lo..hi.max(lo + 1)),
        }
    }

    #[test]
    fn free_set_matches_a_btreeset_of_its_elements() {
        check("free_set_model", 60, |g: &mut Gen| {
            // Empty, one-element and inverted ranges included.
            let lo = g.u64(0..40);
            let hi = match g.usize(0..8) {
                0 => lo,
                1 => lo + 1,
                2 => lo.saturating_sub(g.u64(0..3)),
                _ => lo + g.u64(2..48),
            };
            let mut set = FreeSet::new(lo, hi);
            let mut model: BTreeSet<u64> = (lo..hi).collect();
            assert_invariants(&set, &model);
            for _ in 0..g.usize(1..400) {
                let x = value(g, lo, hi);
                match g.usize(0..9) {
                    0..=2 => assert_eq!(set.take(x), model.remove(&x), "take({x})"),
                    3 | 4 => assert_eq!(set.insert(x), model.insert(x), "insert({x})"),
                    5 => {
                        // What `alloc_ino` and `ensure_slot` do.
                        let first = set.first();
                        assert_eq!(first, model.first().copied(), "first()");
                        if let Some(first) = first {
                            assert!(set.take(first) && model.remove(&first));
                            assert!(!set.take(first), "double take({first})");
                        }
                    }
                    6 => {
                        // What the rotor search does, wrap included.
                        let found = set.first_from(x).or_else(|| set.first());
                        let want = model.range(x..).next().or_else(|| model.first()).copied();
                        assert_eq!(found, want, "first_from({x}) then wrap");
                        if let Some(found) = found {
                            assert!(set.take(found) && model.remove(&found));
                        }
                    }
                    7 => {
                        // What `fs` and `vm` do with a freed extent; empty
                        // and inverted ranges included.
                        let end = match g.usize(0..6) {
                            0 => x.saturating_sub(g.u64(0..3)),
                            1 => value(g, lo, hi),
                            _ => x + g.u64(1..12),
                        };
                        let added = (x..end).filter(|&y| model.insert(y)).count() as u64;
                        assert_eq!(set.insert_range(x, end), added, "insert_range({x}, {end})");
                        assert_eq!(set.insert_range(x, end), 0, "again ({x}, {end})");
                    }
                    _ => {
                        assert_eq!(set.insert(x), model.insert(x), "insert({x})");
                        assert!(!set.insert(x), "double insert({x})");
                    }
                }
                assert_eq!(set.first(), model.first().copied());
                assert_eq!(
                    set.first_from(x),
                    model.range(x..).next().copied(),
                    "first_from({x})"
                );
                assert_invariants(&set, &model);
            }
        });
    }

    /// The runs as `(start, end)`, lowest first.
    fn runs(set: &FreeSet) -> Vec<(u64, u64)> {
        set.runs.iter().map(|(&end, &start)| (start, end)).collect()
    }

    #[test]
    fn free_set_splits_and_merges_runs() {
        let mut s = FreeSet::new(10, 20);
        assert_eq!((s.len(), s.first(), s.runs.len()), (10, Some(10), 1));
        // Both ends shrink the run; the middle splits it.
        assert!(s.take(10) && s.take(19) && s.take(15));
        assert_eq!(runs(&s), [(11, 15), (16, 19)]);
        assert!(!s.take(15) && !s.take(9) && !s.take(20));
        assert_eq!((s.first_from(15), s.first_from(19)), (Some(16), None));
        // Filling the hole merges both neighbours back into one run.
        assert!(s.insert(15) && !s.insert(15));
        assert_eq!(runs(&s), [(11, 19)]);
        assert!(s.insert(19) && s.insert(10) && s.insert(30));
        assert_eq!(runs(&s), [(10, 20), (30, 31)]);
        assert_eq!(s.len(), 11);
        // A range bridges the gap between two runs, and swallows a run
        // inside it.
        assert_eq!(s.insert_range(20, 30), 10);
        assert_eq!(runs(&s), [(10, 31)]);
        assert_eq!(s.insert_range(36, 38), 2);
        assert_eq!(s.insert_range(33, 45), 10);
        assert_eq!(runs(&s), [(10, 31), (33, 45)]);
        assert_eq!((s.insert_range(31, 33), s.insert_range(9, 9)), (2, 0));
        assert_eq!(runs(&s), [(10, 45)]);
        assert_eq!(s.len(), 35);
        // An empty or inverted range is the empty set.
        for empty in [FreeSet::new(9, 9), FreeSet::new(10, 9)] {
            assert_eq!(
                (empty.len(), empty.first(), empty.first_from(0)),
                (0, None, None)
            );
        }
    }
}
