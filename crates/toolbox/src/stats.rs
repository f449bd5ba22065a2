//! Statistical routines for interpreting noisy measurements.
//!
//! The paper's ICLs never trust a single observation: probe times are noisy
//! (interrupts, scheduling, cache effects), so inferences are drawn from
//! means, variances, correlations, and rank statistics. This module provides
//! the operations that Section 5 calls out — simple statistics (mean,
//! standard deviation, median, maximum, minimum), correlations,
//! exponential averaging, and the paired-sample sign test used
//! by MS Manners — all implemented so they can run *incrementally*, because
//! ICL data arrives over time and must be monitored continually.

/// Incrementally maintained summary statistics (Welford's algorithm).
///
/// `OnlineStats` is the workhorse of measurement interpretation: O(1) space,
/// numerically stable, and updatable one observation at a time so an ICL can
/// consult it between probes.
///
/// # Examples
///
/// ```
/// use gray_toolbox::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.stddev() - 2.138).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Creates an accumulator pre-filled from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// The population variance, or 0 with fewer than one observation.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The sample variance (Bessel-corrected), or 0 with fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// The smallest observation, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// The largest observation, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

/// A batch summary with order statistics (median, percentiles).
///
/// Unlike [`OnlineStats`], this retains (a sorted copy of) the data, so it
/// also supports medians and arbitrary percentiles — the paper's toolbox
/// lists the median alongside the incremental statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    online: OnlineStats,
}

impl Summary {
    /// Builds a summary from observations. NaNs are discarded.
    pub fn new(xs: &[f64]) -> Self {
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
        let online = OnlineStats::from_slice(&sorted);
        Summary { sorted, online }
    }

    /// The number of (non-NaN) observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.online.mean()
    }

    /// The sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.online.stddev()
    }

    /// The minimum, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.online.min()
    }

    /// The maximum, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.online.max()
    }

    /// The median (linear interpolation between the two middle values).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The `p`-th percentile (0..=100) by linear interpolation, or NaN if
    /// empty.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }

    /// The underlying sorted observations.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

/// The `p`-th percentile (0..=100) of an ascending-sorted slice, using
/// linear interpolation. Returns NaN for an empty slice.
///
/// # Panics
///
/// Does not panic; out-of-range `p` is clamped to [0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns 0.0 when either series has zero variance or the series are
/// shorter than two points — for inference purposes "no signal" and
/// "uncorrelated" are treated the same.
///
/// # Examples
///
/// ```
/// use gray_toolbox::correlation;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [2.0, 4.0, 6.0, 8.0];
/// assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
/// ```
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation needs equal-length series");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Exponentially weighted moving average, as used by TCP's RTT estimator
/// and MS Manners' progress smoothing.
///
/// # Examples
///
/// ```
/// use gray_toolbox::Ewma;
///
/// let mut e = Ewma::new(0.5);
/// e.push(10.0);
/// e.push(20.0);
/// assert_eq!(e.value(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an estimator with smoothing factor `alpha` in (0, 1]; larger
    /// alpha weights recent samples more.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside (0, 1].
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Adds an observation; the first observation seeds the average.
    pub fn push(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// The current smoothed value, or 0 if no observations were made.
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// Whether any observation has been made.
    pub fn is_seeded(&self) -> bool {
        self.value.is_some()
    }
}

/// Outcome of a paired-sample sign test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignTest {
    /// Number of pairs where the second element exceeded the first.
    pub greater: usize,
    /// Number of pairs where the first element exceeded the second.
    pub less: usize,
    /// Number of tied pairs (excluded from the test).
    pub ties: usize,
    /// Two-sided p-value under the null hypothesis of no difference.
    pub p_value: f64,
}

impl SignTest {
    /// Whether the test rejects "no difference" at the given significance
    /// level.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Paired-sample sign test: is `after` systematically different from
/// `before`? Used by MS Manners to detect contention-induced slowdowns
/// without assuming a noise distribution.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn paired_sign_test(before: &[f64], after: &[f64]) -> SignTest {
    assert_eq!(before.len(), after.len(), "sign test needs paired samples");
    let mut greater = 0usize;
    let mut less = 0usize;
    let mut ties = 0usize;
    for i in 0..before.len() {
        if after[i] > before[i] {
            greater += 1;
        } else if after[i] < before[i] {
            less += 1;
        } else {
            ties += 1;
        }
    }
    let n = greater + less;
    let p_value = if n == 0 {
        1.0
    } else {
        // Two-sided binomial tail: P(X <= min) + P(X >= max) for X ~ B(n, ½).
        let k = greater.min(less);
        let mut tail = 0.0;
        for i in 0..=k {
            tail += binomial_pmf_half(n, i);
        }
        (2.0 * tail).min(1.0)
    };
    SignTest {
        greater,
        less,
        ties,
        p_value,
    }
}

/// A histogram with power-of-two bucket boundaries, for latency
/// distributions whose interesting structure spans orders of magnitude
/// (cache hits in microseconds, disk misses in milliseconds).
///
/// Bucket `i` holds values whose bit length is `i` — i.e. values in
/// `[2^(i-1), 2^i)` — with bucket 0 reserved for zero. Recording is O(1)
/// and allocation-free, so the tracer can feed it on the probe path.
///
/// # Examples
///
/// ```
/// use gray_toolbox::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// for ns in [900u64, 1100, 1200, 950_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile_bound(50.0) <= 2048);
/// assert!(h.percentile_bound(100.0) >= 950_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw bucket counts; bucket `i` covers `[2^(i-1), 2^i)`.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Upper bound (exclusive, as a value) of the bucket containing the
    /// `p`-th percentile, or 0 if empty. Coarse by construction — the
    /// answer is correct to within a factor of two.
    pub fn percentile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i >= 64 { u64::MAX } else { 1u64 << i };
            }
        }
        u64::MAX
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Compact rendering of the non-empty buckets as
    /// `upper_bound:count` pairs, e.g. `2048:17 4096:3`.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let bound = if i >= 64 {
                    "max".to_string()
                } else {
                    format!("{}", 1u64 << i)
                };
                format!("{bound}:{n}")
            })
            .collect();
        parts.join(" ")
    }
}

/// P(X = k) for X ~ Binomial(n, 1/2), computed in log-space for stability.
fn binomial_pmf_half(n: usize, k: usize) -> f64 {
    // log C(n, k) via lgamma-free accumulation.
    let mut log_c = 0.0f64;
    for i in 0..k {
        log_c += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    (log_c - n as f64 * 2.0f64.ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let s = OnlineStats::from_slice(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn online_stats_merge_equals_concat() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0];
        let mut sa = OnlineStats::from_slice(&a);
        let sb = OnlineStats::from_slice(&b);
        sa.merge(&sb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let sc = OnlineStats::from_slice(&all);
        assert!((sa.mean() - sc.mean()).abs() < 1e-12);
        assert!((sa.variance() - sc.variance()).abs() < 1e-12);
        assert_eq!(sa.count(), sc.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn summary_median_even_and_odd() {
        assert_eq!(Summary::new(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Summary::new(&[4.0, 1.0, 2.0, 3.0]).median(), 2.5);
    }

    #[test]
    fn summary_discards_nan() {
        let s = Summary::new(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn correlation_signs() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [1.0, 2.0, 3.0, 4.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        assert!((correlation(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((correlation(&xs, &down) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&xs, &[5.0; 4]), 0.0);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.25);
        for _ in 0..200 {
            e.push(42.0);
        }
        assert!((e.value() - 42.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn sign_test_detects_shift() {
        let before = [1.0; 12];
        let after = [2.0; 12];
        let t = paired_sign_test(&before, &after);
        assert_eq!(t.greater, 12);
        assert!(t.p_value < 0.01);
        assert!(t.significant_at(0.05));
    }

    #[test]
    fn sign_test_null_is_insignificant() {
        let before = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let after = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0];
        let t = paired_sign_test(&before, &after);
        assert_eq!(t.greater, 3);
        assert_eq!(t.less, 3);
        assert!(t.p_value > 0.9);
    }

    #[test]
    fn sign_test_all_ties() {
        let t = paired_sign_test(&[1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(t.ties, 2);
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn log2_histogram_buckets_by_bit_length() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 1); // zero
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[11], 1); // 1024
        assert!(h.summary().contains("2048:1"));
    }

    #[test]
    fn log2_histogram_percentile_bounds() {
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(1000); // bucket 10, bound 1024
        }
        h.record(1_000_000); // bucket 20, bound 1048576
        assert_eq!(h.percentile_bound(50.0), 1024);
        assert_eq!(h.percentile_bound(100.0), 1_048_576);
        assert_eq!(Log2Histogram::new().percentile_bound(50.0), 0);
    }

    #[test]
    fn log2_histogram_merge_adds_counts() {
        let mut a = Log2Histogram::new();
        a.record(10);
        let mut b = Log2Histogram::new();
        b.record(10);
        b.record(100_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[4], 2);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let n = 20;
        let total: f64 = (0..=n).map(|k| binomial_pmf_half(n, k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
