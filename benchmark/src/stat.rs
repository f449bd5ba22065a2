//! The benchmark's own arithmetic: medians, percentiles, the tail rule,
//! FNV digests and a seeded generator.
//!
//! None of this calls `gray_toolbox`: the toolbox is a measured layer, and
//! a change to its statistics must not change how the benchmark counts.

/// FNV-1a offset basis, the start value of every digest.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into an FNV-1a digest.
pub fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Folds a string into an FNV-1a digest, byte by byte.
pub fn fnv_str(mut h: u64, s: &str) -> u64 {
    for b in s.bytes() {
        h = fnv(h, b as u64);
    }
    h
}

/// One splitmix64 step: the generator behind every seeded choice the
/// benchmark makes (query shapes, warm subsets).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `part / whole`, and 1 when nothing was counted: no cached verdict is
/// no wrong cached verdict.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by linear interpolation between closest
/// ranks; `(0, 0)` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    if xs.len() < 2 {
        let x = xs.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// The tail percentile for `n` samples: p99 from 1000 samples up, else the
/// highest whole percentile that still has ten samples beyond it, and the
/// median when there are too few samples for any tail.
pub fn tail_pct(n: usize) -> f64 {
    if n >= 1000 {
        return 99.0;
    }
    if n < 20 {
        return 50.0;
    }
    ((100.0 * (n - 10) as f64 / n as f64).floor()).max(50.0)
}

/// Median, tail and the percentile the tail was read at, of per-operation
/// virtual latencies.
pub struct Latency {
    pub n: usize,
    pub mean: f64,
    pub p50: u64,
    pub tail: u64,
    pub tail_pct: f64,
}

/// Summarises per-operation virtual latencies: `zeros` operations that
/// waited nothing plus the waits in `ns` (sorted in place).
pub fn latency(zeros: u64, ns: &mut [u64]) -> Latency {
    ns.sort_unstable();
    let n = zeros as usize + ns.len();
    let pct = tail_pct(n);
    let sum: u128 = ns.iter().map(|&v| v as u128).sum();
    // Nearest rank over the zeros followed by the sorted waits.
    let at = |pct: f64| {
        let rank = (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
        match rank.checked_sub(zeros as usize + 1) {
            Some(i) if i < ns.len() => ns[i],
            _ => 0,
        }
    };
    Latency {
        n,
        mean: if n == 0 { 0.0 } else { sum as f64 / n as f64 },
        p50: at(50.0),
        tail: at(pct),
        tail_pct: pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(14_400), 99.0);
        assert_eq!(tail_pct(72), 86.0);
        assert_eq!(tail_pct(18), 50.0);
        let mut ns: Vec<u64> = (1..=100).collect();
        let l = latency(0, &mut ns);
        assert_eq!((l.p50, l.tail, l.tail_pct), (50, 90, 90.0));
        // 60 zeros then 41..=80: the median is a zero, p90 is the 30th wait.
        let mut ns: Vec<u64> = (41..=80).collect();
        let l = latency(60, &mut ns);
        assert_eq!((l.n, l.p50, l.tail, l.tail_pct), (100, 0, 70, 90.0));
    }
}
