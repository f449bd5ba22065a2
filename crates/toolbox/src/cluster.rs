//! One-dimensional clustering for differentiating measurement populations.
//!
//! Section 4.2.4 of the paper composes FCCD with FLDC by clustering probe
//! times "into two groups, minimizing the intragroup variance and maximizing
//! the intergroup variance": the fast cluster is predicted in-cache, the
//! slow cluster on-disk. Because the data is one-dimensional and k is tiny,
//! clustering can be done *exactly* (not Lloyd's heuristic) by sorting and
//! scanning all k-1 split points — deterministic, permutation-invariant, and
//! O(n log n).
//!
//! [`split_fast_slow`] is the one place a clustering becomes a hit/miss
//! verdict: it owns the scale (log time), the trust floor and the
//! degenerate inputs; [`two_means`] and [`kmeans1d`] are the scale-free
//! primitives under it.

/// The result of clustering one-dimensional data into `k` groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// For each input index, the cluster id in `0..k`, ordered so that
    /// cluster 0 has the smallest centroid.
    pub assignment: Vec<usize>,
    /// Cluster centroids in ascending order.
    pub centroids: Vec<f64>,
    /// Per-cluster population counts.
    pub sizes: Vec<usize>,
    /// Total within-cluster sum of squared deviations.
    pub within_ss: f64,
}

impl Clustering {
    /// Indices of the inputs assigned to `cluster`.
    pub fn members(&self, cluster: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c == cluster).then_some(i))
            .collect()
    }

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
/// Sorts the data and chooses the split point that minimizes the total
/// within-cluster sum of squares. This is the clustering the paper uses to
/// discern in-cache from on-disk probe times.
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
    kmeans1d(data, 2)
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

/// Exact k-means clustering of one-dimensional data for small `k`.
///
/// For `k == 2` this scans every split point of the sorted data (O(n) after
/// sorting, using prefix sums). For larger `k` it uses interval dynamic
/// programming, O(k·n²), which is fine for the toolbox's measurement-sized
/// inputs. With fewer distinct points than clusters, the extra clusters come
/// back empty (size 0, centroid repeated).
///
/// # Panics
///
/// Panics if `k == 0` or `data` is empty.
pub fn kmeans1d(data: &[f64], k: usize) -> Clustering {
    assert!(k > 0, "k must be positive");
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

    let k_eff = k.min(n);
    // boundaries[j] = start of cluster j (in the sorted order); cluster j is
    // [boundaries[j], boundaries[j + 1]).
    let boundaries = if k_eff == 1 {
        vec![0, n]
    } else {
        // DP over (clusters used, prefix length): dp[j][i] = best within-SS
        // of splitting sorted[..i] into j clusters.
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

    let mut centroids = Vec::with_capacity(k);
    let mut sizes = Vec::with_capacity(k);
    let mut within_ss = 0.0;
    let mut assignment_sorted = vec![0usize; n];
    for j in 0..k_eff {
        let (lo, hi) = (boundaries[j], boundaries[j + 1]);
        let cnt = hi - lo;
        let centroid = if cnt == 0 {
            *centroids.last().unwrap_or(&sorted[0])
        } else {
            (pre[hi] - pre[lo]) / cnt as f64
        };
        centroids.push(centroid);
        sizes.push(cnt);
        within_ss += cost(lo, hi);
        for slot in assignment_sorted.iter_mut().take(hi).skip(lo) {
            *slot = j;
        }
    }
    // Pad out degenerate clusters when k > number of points.
    while centroids.len() < k {
        centroids.push(*centroids.last().expect("k_eff >= 1"));
        sizes.push(0);
    }

    // Undo the sort permutation.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn kmeans_three_way() {
        // Memory, disk, tape — the multi-level store from the paper.
        let data = [1.0, 2.0, 1000.0, 1100.0, 1e6, 1e6 + 100.0];
        let c = kmeans1d(&data, 3);
        assert_eq!(c.assignment, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(c.sizes, vec![2, 2, 2]);
    }

    #[test]
    fn kmeans_one_cluster_is_mean() {
        let data = [1.0, 2.0, 3.0];
        let c = kmeans1d(&data, 1);
        assert_eq!(c.centroids, vec![2.0]);
        assert_eq!(c.sizes, vec![3]);
    }

    #[test]
    fn members_returns_original_indices() {
        let data = [100.0, 1.0, 101.0, 2.0];
        let c = two_means(&data);
        assert_eq!(c.members(0), vec![1, 3]);
        assert_eq!(c.members(1), vec![0, 2]);
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
