//! One-dimensional clustering for differentiating measurement populations.
//!
//! Section 4.2.4 of the paper composes FCCD with FLDC by clustering probe
//! times "into two groups, minimizing the intragroup variance and maximizing
//! the intergroup variance": the fast cluster is predicted in-cache, the
//! slow cluster on-disk. Because the data is one-dimensional and there are
//! two groups, clustering can be done *exactly* (not Lloyd's heuristic) by
//! sorting and scanning every split point — deterministic,
//! permutation-invariant, and O(n log n).
//!
//! [`split_fast_slow`] is the one place a clustering becomes a hit/miss
//! verdict: it owns the scale (log time), the trust floor and the
//! degenerate inputs; [`two_means`] is the scale-free primitive under it.

/// The result of clustering one-dimensional data into two groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// For each input index, the cluster id (0 or 1), ordered so that
    /// cluster 0 has the smaller centroid.
    pub assignment: Vec<usize>,
    /// Cluster centroids in ascending order.
    pub centroids: Vec<f64>,
    /// Per-cluster population counts.
    pub sizes: Vec<usize>,
    /// Total within-cluster sum of squared deviations.
    pub within_ss: f64,
}

impl Clustering {
    /// A separation score in [0, 1]: 1 - within_ss / total_ss. A score near
    /// 1 means the clusters are well separated; near 0 means the split is
    /// arbitrary (e.g. all points are on disk). ICLs use this to decide
    /// whether to trust a two-way split at all.
    pub fn separation(&self, data: &[f64]) -> f64 {
        let n = data.len();
        if n < 2 {
            return 0.0;
        }
        let mean = data.iter().sum::<f64>() / n as f64;
        let total_ss: f64 = data.iter().map(|x| (x - mean) * (x - mean)).sum();
        if total_ss == 0.0 {
            return 0.0;
        }
        (1.0 - self.within_ss / total_ss).clamp(0.0, 1.0)
    }
}

/// Exact two-means clustering of one-dimensional data.
///
/// Sorts the data and scans every split point of the sorted order, O(n)
/// after sorting with prefix sums, keeping the one that minimizes the
/// total within-cluster sum of squares; among equal sums the smallest
/// fast cluster wins. This is the clustering the paper uses to discern
/// in-cache from on-disk probe times. A single point is cluster 0, with
/// cluster 1 empty (size 0, centroid repeated).
///
/// # Panics
///
/// Panics if `data` is empty or holds a NaN.
///
/// # Examples
///
/// ```
/// use gray_toolbox::two_means;
///
/// // Three microsecond-scale hits and two millisecond-scale misses.
/// let times = [2.0, 3.0, 2.5, 4000.0, 5000.0];
/// let c = two_means(&times);
/// assert_eq!(c.assignment, vec![0, 0, 0, 1, 1]);
/// assert_eq!(c.sizes, vec![3, 2]);
/// ```
pub fn two_means(data: &[f64]) -> Clustering {
    assert!(!data.is_empty(), "cannot cluster an empty data set");

    // Sort indices by value so clusters are contiguous runs.
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.sort_by(|&a, &b| {
        data[a]
            .partial_cmp(&data[b])
            .expect("clustering rejects NaN inputs")
            .then(a.cmp(&b))
    });
    let sorted: Vec<f64> = order.iter().map(|&i| data[i]).collect();
    let n = sorted.len();

    // Prefix sums for O(1) interval cost queries.
    let mut pre = vec![0.0f64; n + 1];
    let mut pre2 = vec![0.0f64; n + 1];
    for i in 0..n {
        pre[i + 1] = pre[i] + sorted[i];
        pre2[i + 1] = pre2[i] + sorted[i] * sorted[i];
    }
    // Within-SS of the half-open interval [lo, hi).
    let cost = |lo: usize, hi: usize| -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let cnt = (hi - lo) as f64;
        let s = pre[hi] - pre[lo];
        let s2 = pre2[hi] - pre2[lo];
        (s2 - s * s / cnt).max(0.0)
    };

    // Cluster 0 is sorted[..split], cluster 1 sorted[split..].
    let split = if n == 1 {
        1
    } else {
        let mut best = (f64::INFINITY, 0);
        for split in 1..n {
            let c = cost(0, split) + cost(split, n);
            if c < best.0 {
                best = (c, split);
            }
        }
        best.1
    };

    let mut centroids = Vec::with_capacity(2);
    let mut sizes = Vec::with_capacity(2);
    let mut within_ss = 0.0;
    for (lo, hi) in [(0, split), (split, n)] {
        let centroid = if hi == lo {
            *centroids.last().unwrap_or(&sorted[0])
        } else {
            (pre[hi] - pre[lo]) / (hi - lo) as f64
        };
        centroids.push(centroid);
        sizes.push(hi - lo);
        within_ss += cost(lo, hi);
    }

    // Undo the sort permutation.
    let mut assignment = vec![0usize; n];
    for (pos, &orig) in order.iter().enumerate() {
        assignment[orig] = usize::from(pos >= split);
    }

    Clustering {
        assignment,
        centroids,
        sizes,
        within_ss,
    }
}

/// Below this [`Clustering::separation`] a two-way split found no real
/// structure (everything cost about the same) and is not trusted.
pub const TRUST_FLOOR: f64 = 0.5;

/// A fast-versus-slow verdict per input time ([`split_fast_slow`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FastSlow {
    /// For each input index, whether it fell in the fast cluster. All
    /// `false` when the split is not trusted.
    pub fast: Vec<bool>,
    /// The [`Clustering::separation`] of the split, in [0, 1]; 0.0 for
    /// fewer than two distinct times.
    pub separation: f64,
}

/// The one hit/miss rule: which of `times_ns` (nanoseconds read off the
/// gray-box clock) are fast — cache hits, resident pages — and which slow.
///
/// Clusters the natural log of each time: the signal is orders of
/// magnitude (µs against ms), while misses alone spread over several ms
/// with seek distance, so on linear time the variance-optimal cut falls
/// inside the disk cluster. Times are clamped to ≥ 1 ns first, so a
/// timer-quantised 0 ns hit is the fastest point rather than −∞.
///
/// Fewer than two distinct times, or a separation (in log time) below
/// [`TRUST_FLOOR`], report everything slow: "fast versus slow" carries no
/// signal when everything costs the same.
///
/// ```
/// // Two 2 µs hits; misses from 1.8 ms to 6.7 ms.
/// let split = gray_toolbox::split_fast_slow(&[2e3, 1.8e6, 2e3, 6.7e6, 2.4e6]);
/// assert_eq!(split.fast, vec![true, false, true, false, false]);
/// assert!(split.separation > 0.9);
/// ```
pub fn split_fast_slow(times_ns: &[f64]) -> FastSlow {
    let log_times: Vec<f64> = times_ns.iter().map(|t| t.max(1.0).ln()).collect();
    // Fewer than two distinct times (empty and one-point inputs included):
    // the rounding noise of summed equal logs must not pass for structure.
    if log_times.windows(2).all(|w| w[0] == w[1]) {
        return FastSlow {
            fast: vec![false; times_ns.len()],
            separation: 0.0,
        };
    }
    let clustering = two_means(&log_times);
    let separation = clustering.separation(&log_times);
    let trusted = separation >= TRUST_FLOOR;
    let fast = clustering.assignment.iter().map(|&c| trusted && c == 0);
    FastSlow {
        fast: fast.collect(),
        separation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, Gen};

    /// The definition [`two_means`] scans for: exact k-means for k = 2 as
    /// the interval dynamic program over the sorted data (O(n²)) that the
    /// toolbox shipped for any k before the scan replaced it.
    fn two_means_by_dp(data: &[f64]) -> Clustering {
        const K: usize = 2;
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).unwrap().then(a.cmp(&b)));
        let sorted: Vec<f64> = order.iter().map(|&i| data[i]).collect();
        let n = sorted.len();
        let mut pre = vec![0.0f64; n + 1];
        let mut pre2 = vec![0.0f64; n + 1];
        for i in 0..n {
            pre[i + 1] = pre[i] + sorted[i];
            pre2[i + 1] = pre2[i] + sorted[i] * sorted[i];
        }
        let cost = |lo: usize, hi: usize| -> f64 {
            if hi <= lo {
                return 0.0;
            }
            let cnt = (hi - lo) as f64;
            let s = pre[hi] - pre[lo];
            let s2 = pre2[hi] - pre2[lo];
            (s2 - s * s / cnt).max(0.0)
        };
        let k_eff = K.min(n);
        let boundaries = if k_eff == 1 {
            vec![0, n]
        } else {
            // dp[j][i] = best within-SS of splitting sorted[..i] into j
            // clusters.
            let mut dp = vec![vec![f64::INFINITY; n + 1]; k_eff + 1];
            let mut arg = vec![vec![0usize; n + 1]; k_eff + 1];
            dp[0][0] = 0.0;
            for j in 1..=k_eff {
                for i in j..=n {
                    for split in (j - 1)..i {
                        let c = dp[j - 1][split] + cost(split, i);
                        if c < dp[j][i] {
                            dp[j][i] = c;
                            arg[j][i] = split;
                        }
                    }
                }
            }
            let mut bounds = vec![0usize; k_eff + 1];
            bounds[k_eff] = n;
            let mut i = n;
            for j in (1..=k_eff).rev() {
                i = arg[j][i];
                bounds[j - 1] = i;
            }
            bounds
        };
        let mut centroids = Vec::new();
        let mut sizes = Vec::new();
        let mut within_ss = 0.0;
        let mut assignment_sorted = vec![0usize; n];
        for j in 0..k_eff {
            let (lo, hi) = (boundaries[j], boundaries[j + 1]);
            let centroid = if hi == lo {
                *centroids.last().unwrap_or(&sorted[0])
            } else {
                (pre[hi] - pre[lo]) / (hi - lo) as f64
            };
            centroids.push(centroid);
            sizes.push(hi - lo);
            within_ss += cost(lo, hi);
            assignment_sorted[lo..hi].fill(j);
        }
        while centroids.len() < K {
            centroids.push(*centroids.last().unwrap());
            sizes.push(0);
        }
        let mut assignment = vec![0usize; n];
        for (pos, &orig) in order.iter().enumerate() {
            assignment[orig] = assignment_sorted[pos];
        }
        Clustering {
            assignment,
            centroids,
            sizes,
            within_ss,
        }
    }

    /// One input of a shape the scan must get exactly right: one point,
    /// all equal, heavy ties, two well-separated modes, log probe times
    /// (hits near 2 µs, misses spread over milliseconds, either possibly
    /// absent), or no structure at all.
    fn shaped_input(g: &mut Gen) -> Vec<f64> {
        match g.usize(0..6) {
            0 => vec![g.f64(-1e6..1e6)],
            1 => vec![g.f64(-1e3..1e3); g.usize(2..40)],
            2 => {
                let levels = g.vec(1..4, |g| g.u64(0..6) as f64);
                g.vec(2..40, |g| g.select(&levels))
            }
            3 => {
                let mut xs = g.vec(1..20, |g| g.f64(0.0..10.0));
                xs.extend(g.vec(1..20, |g| g.f64(1e3..1e4)));
                xs
            }
            4 => {
                let mut xs = g.vec(0..20, |g| g.f64(1.5e3..3e3).ln());
                xs.extend(g.vec(0..20, |g| g.f64(1e6..8e6).ln()));
                xs.push(g.f64(1.0..1e7).ln());
                xs
            }
            _ => g.vec(2..60, |g| g.f64(-1e6..1e6)),
        }
    }

    #[test]
    fn two_means_matches_its_dp_definition() {
        check("two_means_matches_its_dp_definition", 256, |g: &mut Gen| {
            let mut xs = shaped_input(g);
            g.rng().shuffle(&mut xs);
            let scan = two_means(&xs);
            let dp = two_means_by_dp(&xs);
            assert_eq!(scan.assignment, dp.assignment, "{xs:?}");
            assert_eq!(scan.centroids, dp.centroids, "{xs:?}");
            assert_eq!(scan.sizes, dp.sizes, "{xs:?}");
            assert_eq!(scan.within_ss.to_bits(), dp.within_ss.to_bits(), "{xs:?}");
            assert_eq!(
                scan.separation(&xs).to_bits(),
                dp.separation(&xs).to_bits(),
                "{xs:?}"
            );
        });
    }

    #[test]
    fn two_means_separates_bimodal_data() {
        let data = [1.0, 1.1, 0.9, 100.0, 101.0, 99.5];
        let c = two_means(&data);
        assert_eq!(c.assignment, vec![0, 0, 0, 1, 1, 1]);
        assert!((c.centroids[0] - 1.0).abs() < 0.1);
        assert!((c.centroids[1] - 100.0).abs() < 1.0);
        assert!(c.separation(&data) > 0.99);
    }

    #[test]
    fn two_means_is_permutation_invariant() {
        let a = [5.0, 6.0, 50.0, 51.0];
        let b = [51.0, 5.0, 50.0, 6.0];
        let ca = two_means(&a);
        let cb = two_means(&b);
        assert_eq!(ca.centroids, cb.centroids);
        assert_eq!(ca.sizes, cb.sizes);
        // b[1] and b[3] are the small values.
        assert_eq!(cb.assignment, vec![1, 0, 1, 0]);
    }

    #[test]
    fn identical_points_have_zero_separation() {
        let data = [7.0; 5];
        let c = two_means(&data);
        assert_eq!(c.within_ss, 0.0);
        assert_eq!(c.separation(&data), 0.0);
    }

    #[test]
    fn single_point_clusters() {
        let c = two_means(&[42.0]);
        assert_eq!(c.assignment, vec![0]);
        assert_eq!(c.sizes, vec![1, 0]);
        assert_eq!(c.centroids[0], 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        let _ = two_means(&[]);
    }

    #[test]
    fn optimal_split_beats_naive_midpoint() {
        // A case where splitting at the numeric midpoint is suboptimal:
        // {0, 1, 2, 10}: best 2-split is {0,1,2} | {10}.
        let c = two_means(&[0.0, 1.0, 2.0, 10.0]);
        assert_eq!(c.assignment, vec![0, 0, 0, 1]);
    }

    /// ROADMAP's `linux/fresh/n0.00/probe/f12` shape: six hits, eight
    /// misses spread 1.79–6.7 ms.
    const HITS_AND_SPREAD_MISSES: [f64; 14] = [
        1942.0, 1942.0, 1942.0, 1942.0, 1942.0, 1942.0, 1.79e6, 2.14e6, 2.43e6, 2.53e6, 4.0e6,
        5.1e6, 6.0e6, 6.7e6,
    ];

    #[test]
    fn split_keeps_spread_out_misses_together() {
        let split = split_fast_slow(&HITS_AND_SPREAD_MISSES);
        let expected: Vec<bool> = (0..14).map(|i| i < 6).collect();
        assert_eq!(split.fast, expected);
        assert!(split.separation > 0.98, "{}", split.separation);
        // On linear ns the variance-optimal cut falls inside the disk
        // cluster: the four fastest misses join the hits.
        let raw = two_means(&HITS_AND_SPREAD_MISSES);
        assert_eq!(raw.sizes, vec![10, 4]);
        assert!((raw.separation(&HITS_AND_SPREAD_MISSES) - 0.79).abs() < 0.01);
    }

    #[test]
    fn split_survives_a_zero_ns_sample() {
        let split = split_fast_slow(&[0.0, 1800.0, 2100.0, 3.0e6, 5.5e6]);
        assert_eq!(split.fast, vec![true, true, true, false, false]);
        assert!(split.separation.is_finite() && split.separation >= TRUST_FLOOR);
    }

    #[test]
    fn split_of_degenerate_inputs_is_all_slow() {
        for data in [&[][..], &[42.0][..], &[7.0; 5][..]] {
            let split = split_fast_slow(data);
            assert_eq!(split.fast, vec![false; data.len()]);
            assert_eq!(split.separation, 0.0);
        }
    }
}
