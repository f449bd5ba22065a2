//! Composing FCCD and FLDC (paper Section 4.2.4).
//!
//! For the best ordering of a set of files, an application should first
//! access the files that are *in cache* (FCCD) and then access the rest in
//! their probable *on-disk order* (FLDC). The difficulty is that FCCD does
//! not natively identify which files are cached — it only ranks them by
//! probe time — so the composition splits the probe times fast from slow
//! with [`classify_ranks`](crate::fccd::classify_ranks) (the toolbox's
//! `split_fast_slow` on log time), treats the fast group as cached, and
//! sorts **both**
//! groups by i-number: the predictions may be wrong (e.g. everything is on
//! disk), and i-number order is a safe fallback either way.

use crate::fccd::Fccd;
use crate::fldc::Fldc;
use crate::os::{GrayBoxOs, OsResult};
use crate::technique::{Technique, TechniqueInventory};

/// One file in a composed ordering, with the evidence that placed it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComposedRank {
    /// The file's path.
    pub path: String,
    /// Whether the probe-time clustering predicted this file cached.
    pub predicted_cached: bool,
    /// The file's i-number, if it could be stat'ed.
    pub ino: Option<u64>,
}

/// The composed FCCD + FLDC file orderer.
pub struct ComposedOrderer<'a, O: GrayBoxOs> {
    fccd: &'a Fccd<'a, O>,
    fldc: &'a Fldc<'a, O>,
}

impl<'a, O: GrayBoxOs> ComposedOrderer<'a, O> {
    /// Composes an existing detector pair.
    pub fn new(fccd: &'a Fccd<'a, O>, fldc: &'a Fldc<'a, O>) -> Self {
        ComposedOrderer { fccd, fldc }
    }

    /// Orders `paths` for access: predicted-cached files first, each group
    /// sorted by `(device, i-number)`.
    pub fn order_files(&self, paths: &[String]) -> OsResult<Vec<ComposedRank>> {
        let classified = self.fccd.classify_files(paths);
        let mut out = Vec::with_capacity(paths.len());
        for (group, cached) in [(classified.cached, true), (classified.uncached, false)] {
            let group_paths: Vec<String> = group.into_iter().map(|r| r.path).collect();
            let (ranked, _missing) = self.fldc.order_by_inumber(&group_paths);
            let mut seen: std::collections::HashSet<&String> = std::collections::HashSet::new();
            for rank in &ranked {
                out.push(ComposedRank {
                    path: rank.path.clone(),
                    predicted_cached: cached,
                    ino: Some(rank.stat.ino),
                });
            }
            let ranked_paths: std::collections::HashSet<String> =
                ranked.into_iter().map(|r| r.path).collect();
            // Files that vanished between probe and stat still belong in
            // the ordering (the open may yet succeed); they go last in the
            // group with no layout evidence.
            for path in &group_paths {
                if !ranked_paths.contains(path) && seen.insert(path) {
                    out.push(ComposedRank {
                        path: path.clone(),
                        predicted_cached: cached,
                        ino: None,
                    });
                }
            }
        }
        Ok(out)
    }
}

/// How the composed orderer maps onto the technique taxonomy.
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "FCCD+FLDC",
        &[
            (Technique::AlgorithmicKnowledge, "LRU cache + FFS layout"),
            (Technique::MonitorOutputs, "Probe times + i-numbers"),
            (Technique::StatisticalMethods, "Two-means clustering"),
            (Technique::InsertProbes, "Reads and stat()s"),
        ],
    )
}
