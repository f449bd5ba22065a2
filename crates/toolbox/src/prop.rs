//! A small deterministic property-testing harness.
//!
//! Replaces the external property-testing dependency with an in-tree,
//! zero-dependency runner that fits this workspace's determinism policy:
//!
//! - **Seeded generators** ([`Gen`]): every random input is drawn from a
//!   [`StdRng`] whose per-case seed is derived deterministically from
//!   the property name and case index, so a run is
//!   reproducible bit-for-bit on any machine.
//! - **Fixed case counts**: a property runs exactly `cases` times (no
//!   time-based budgets), so CI and laptops execute the same work.
//! - **Shrink-free failure reporting**: on failure the harness prints the
//!   property name, case index, and the case seed, then re-raises the
//!   panic. There is no shrinker; instead, re-run just the failing case by
//!   setting `PROP_SEED=<seed>` (and optionally `PROP_CASES=1`) — the
//!   generator replays the identical input.
//!
//! ```
//! use gray_toolbox::prop::{check, Gen};
//!
//! check("reverse_is_involutive", 64, |g: &mut Gen| {
//!     let xs = g.vec(0..20, |g| g.u64(0..1000));
//!     let mut twice = xs.clone();
//!     twice.reverse();
//!     twice.reverse();
//!     assert_eq!(twice, xs);
//! });
//! ```

use crate::rng::{SampleRange, StdRng};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A seeded source of random test inputs for one property case.
pub struct Gen {
    rng: StdRng,
    seed: u64,
}

impl Gen {
    /// A generator for an explicit seed (what `PROP_SEED` replays).
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed that reproduces this case.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A uniform draw from any supported range, e.g. `g.range(1u64..100)`
    /// or `g.range(-1.0f64..=1.0)`.
    pub fn range<T>(&mut self, r: impl SampleRange<T>) -> T {
        self.rng.random_range(r)
    }

    /// A uniform `u64` from `r`.
    pub fn u64(&mut self, r: impl SampleRange<u64>) -> u64 {
        self.rng.random_range(r)
    }

    /// A uniform `usize` from `r`.
    pub fn usize(&mut self, r: impl SampleRange<usize>) -> usize {
        self.rng.random_range(r)
    }

    /// A uniform `f64` from `r`.
    pub fn f64(&mut self, r: impl SampleRange<f64>) -> f64 {
        self.rng.random_range(r)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.random_bool(0.5)
    }

    /// `true` with probability `p`.
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.rng.random_bool(p)
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A uniformly chosen element of `items` (panics on empty input — an
    /// empty choice set is a bug in the property, not a test input).
    pub fn select<T: Clone>(&mut self, items: &[T]) -> T {
        self.rng
            .choose(items)
            .expect("select requires a non-empty slice")
            .clone()
    }

    /// Direct access to the underlying generator for shuffles etc.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// FNV-1a over the property name: a stable, platform-independent base
/// seed so each property explores its own input stream.
fn name_seed(name: &str) -> u64 {
    crate::hash::fnv_bytes(crate::hash::FNV_OFFSET, name.as_bytes())
}

/// The per-case seed: the property's base seed advanced `case` steps
/// through splitmix64, so cases are uncorrelated but enumerable.
fn case_seed(name: &str, case: u64) -> u64 {
    let mut s = name_seed(name);
    for _ in 0..=case {
        crate::rng::splitmix64(&mut s);
    }
    s
}

/// Runs `property` against `cases` deterministic random inputs.
///
/// On the first failing case, prints a reproduction banner naming the
/// case seed and re-raises the original panic — no shrinking, by design:
/// with deterministic generators, the printed seed *is* the minimal
/// reproduction recipe.
///
/// Environment overrides (for reproducing recorded failures):
///
/// - `PROP_SEED=<u64>`: run only that exact case seed (decimal or 0x hex);
/// - `PROP_CASES=<n>`: override the case count.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    if let Some(seed) = env_seed() {
        eprintln!("prop {name}: replaying single case from PROP_SEED={seed:#x}");
        let mut g = Gen::from_seed(seed);
        property(&mut g);
        return;
    }
    let cases = env_cases().unwrap_or(cases);
    for case in 0..cases as u64 {
        let seed = case_seed(name, case);
        let mut g = Gen::from_seed(seed);
        let result = catch_unwind(AssertUnwindSafe(|| property(&mut g)));
        if let Err(panic) = result {
            eprintln!(
                "property `{name}` failed at case {case}/{cases} (seed {seed:#x}).\n\
                 reproduce with: PROP_SEED={seed:#x} cargo test -q {name}"
            );
            resume_unwind(panic);
        }
    }
}

fn env_seed() -> Option<u64> {
    let raw = std::env::var("PROP_SEED").ok()?;
    let raw = raw.trim();
    let parsed = raw
        .strip_prefix("0x")
        .map(|h| u64::from_str_radix(h, 16))
        .unwrap_or_else(|| raw.parse());
    Some(parsed.unwrap_or_else(|e| panic!("unparsable PROP_SEED `{raw}`: {e}")))
}

fn env_cases() -> Option<u32> {
    let raw = std::env::var("PROP_CASES").ok()?;
    Some(
        raw.trim()
            .parse()
            .unwrap_or_else(|e| panic!("unparsable PROP_CASES `{raw}`: {e}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let mut inputs = Vec::new();
            check("determinism_probe", 8, |g| {
                inputs.push((g.seed(), g.u64(0..1000)));
            });
            inputs
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn distinct_properties_get_distinct_streams() {
        let mut a = Vec::new();
        check("stream_a", 4, |g| a.push(g.u64(0..u64::MAX)));
        let mut b = Vec::new();
        check("stream_b", 4, |g| b.push(g.u64(0..u64::MAX)));
        assert_ne!(a, b);
    }

    #[test]
    fn failing_case_reports_and_repanics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("always_fails", 16, |_g| panic!("intentional"));
        }));
        assert!(result.is_err(), "the property panic must propagate");
    }

    #[test]
    fn replaying_the_printed_seed_reproduces_the_input() {
        // Find the input of case 3, then rebuild it from its seed alone.
        let mut recorded = None;
        check("replay_me", 8, |g| {
            let x = g.u64(0..1_000_000);
            if recorded.is_none() {
                recorded = Some((g.seed(), x));
            }
        });
        let (seed, x) = recorded.unwrap();
        let mut g = Gen::from_seed(seed);
        assert_eq!(g.u64(0..1_000_000), x);
    }

    #[test]
    fn vec_respects_length_bounds() {
        check("vec_len", 32, |g| {
            let v = g.vec(2..7, |g| g.bool());
            assert!((2..7).contains(&v.len()));
        });
    }
}
