//! Virtual time, CPU resources, and the seeded noise model.
//!
//! Every simulated process carries its own virtual clock; shared resources
//! (CPUs here, disks in [`crate::disk`]) serialize access by tracking when
//! they next become free. The executor always runs the process with the
//! smallest local time, so state mutations are applied in causal order —
//! this is a conservative sequential discrete-event simulation.

use gray_toolbox::rng::{inclusive_f64, StdRng, BITS_DROPPED};
use gray_toolbox::{GrayDuration, Nanos};

use crate::config::{NoiseParams, COSTS};

/// Mean extra latency of an "interrupt" spike (exponentially distributed).
pub const SPIKE_MEAN: GrayDuration = GrayDuration::from_micros(150);

/// Cost of reading the high-resolution timer.
pub(crate) const TIMER_READ: GrayDuration = GrayDuration(40);

/// The only costs with a jitter table (DESIGN.md §2): the three a page
/// pays for again and again — the timer read on either side of a timed
/// touch, the touch itself, and the page lookup each inode-table block a
/// written page dirties is charged. Each table is built at every noisy
/// boot, which is every matrix cell; at 5 % jitter the three hold 8, 64
/// and 128 buckets. The page-fault charges (5 500 and 1 750 ns) stay
/// exact: a fault already pays a cache insert and often a disk transfer,
/// and their tables would hold up to 2 048 buckets, built per boot.
const TABLED: [GrayDuration; 3] = [TIMER_READ, COSTS.mem_touch, COSTS.page_lookup];

/// The jittered charge of `d` for a draw whose top 53 bits are `bits`:
/// `round(d · (1 + f))`, `f` the draw from `±jitter`. The definition every
/// jittered charge follows, tabled or not.
fn jittered(d: GrayDuration, jitter: f64, bits: u64) -> u64 {
    d.mul_f64(1.0 + inclusive_f64(bits, -jitter, jitter))
        .as_nanos()
}

/// One bucket of a [`JitterTable`]: the charge is `low` from the bucket's
/// first draw and `low + 1` from `step` on.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    low: u64,
    /// Past the bucket's last draw when the charge is flat across it.
    step: u64,
}

/// [`jittered`] for one cost and jitter, looked up instead of computed.
///
/// As a function of the draw's 53 bits the jittered charge never
/// decreases (every IEEE step in it is monotone) and climbs one nanosecond
/// at a time. Split the draws into 2^k equal buckets with at most one step
/// in each, and a bucket's first charge and the draw its step sits at say
/// everything; both are found with the exact function, so the table is a
/// cache of it, not a model.
#[derive(Debug, Default)]
struct JitterTable {
    /// A draw's bucket is its bits shifted right by this.
    shift: u32,
    buckets: Box<[Bucket]>,
}

impl JitterTable {
    fn new(d: GrayDuration, jitter: f64) -> Self {
        let exact = |bits| jittered(d, jitter, bits);
        let steps = exact((1 << 53) - 1) - exact(0);
        // The steps are all but evenly spaced, so twice as many buckets
        // as steps holds at most one in each; more if one does not.
        let mut k = (2 * steps).max(1).next_power_of_two().trailing_zeros();
        loop {
            if let Some(table) = Self::with_buckets(k, exact) {
                return table;
            }
            k += 1;
        }
    }

    /// The table with 2^k buckets, if none of them holds two steps.
    fn with_buckets(k: u32, exact: impl Fn(u64) -> u64) -> Option<Self> {
        let shift = 53 - k;
        let buckets = (0..1u64 << k).map(|i| {
            let (first, last) = (i << shift, ((i + 1) << shift) - 1);
            let low = exact(first);
            match exact(last) - low {
                0 => Some(Bucket {
                    low,
                    step: last + 1,
                }),
                1 => {
                    // The first draw charged `low + 1`: in `(lo, hi]`.
                    let (mut lo, mut hi) = (first, last);
                    while hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        if exact(mid) > low {
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                    }
                    Some(Bucket { low, step: hi })
                }
                _ => None,
            }
        });
        Some(JitterTable {
            shift,
            buckets: buckets.collect::<Option<_>>()?,
        })
    }

    /// One load, one compare, one add.
    #[inline]
    fn charge(&self, bits: u64) -> u64 {
        let b = self.buckets[(bits >> self.shift) as usize];
        b.low + u64::from(bits >= b.step)
    }
}

/// Deterministic latency noise generator.
#[derive(Debug)]
pub struct Noise {
    params: NoiseParams,
    rng: StdRng,
    /// No jitter and no spikes: `apply` is the identity and draws nothing.
    quiet: bool,
    /// A spike draw whose top 53 bits fall below this spikes: `⌈p · 2^53⌉`,
    /// exactly the draws `random_bool(p)` says yes to; 0 with spikes off.
    spike_below: u64,
    /// One per [`TABLED`] cost; empty without jitter.
    tables: [JitterTable; 3],
}

impl Noise {
    /// Creates a noise source with the given parameters and seed.
    pub fn new(params: NoiseParams, seed: u64) -> Self {
        let NoiseParams {
            jitter_frac,
            spike_prob,
            ..
        } = params;
        let jitter = jitter_frac > 0.0;
        // `p · 2^53` is exact and the draw is an integer, so the draw is
        // below it exactly when it is below its ceiling.
        let spike_below = if spike_prob > 0.0 {
            assert!(spike_prob <= 1.0, "probability {spike_prob} outside [0, 1]");
            (spike_prob * (1u64 << 53) as f64).ceil() as u64
        } else {
            0
        };
        let table = |d| {
            if jitter {
                JitterTable::new(d, jitter_frac)
            } else {
                JitterTable::default()
            }
        };
        Noise {
            params,
            rng: StdRng::seed_from_u64(seed),
            quiet: !jitter && spike_below == 0,
            spike_below,
            tables: TABLED.map(table),
        }
    }

    /// Applies jitter and occasional spikes to a duration.
    #[inline(always)]
    pub fn apply(&mut self, d: GrayDuration) -> GrayDuration {
        // Inlined whole: what is left is the quiet check, a tabled cost's
        // lookup and the spike compare; the exact jitter and the spike
        // itself stay out of line.
        if self.quiet {
            return d;
        }
        // `d` is a constant at the kernel's call sites, so this folds away.
        let out = match TABLED.iter().position(|&t| t == d) {
            Some(i) if self.params.jitter_frac > 0.0 => {
                let bits = self.draw();
                GrayDuration(self.tables[i].charge(bits))
            }
            Some(_) => d,
            None => self.jitter_exact(d),
        };
        if self.spike_below > 0 && self.draw() < self.spike_below {
            return out + self.spike();
        }
        out
    }

    /// The top 53 bits of the next draw.
    #[inline]
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> BITS_DROPPED
    }

    /// The jitter of a cost with no table.
    #[inline(never)]
    fn jitter_exact(&mut self, d: GrayDuration) -> GrayDuration {
        let jitter = self.params.jitter_frac;
        if jitter > 0.0 && d > GrayDuration::ZERO {
            return GrayDuration(jittered(d, jitter, self.draw()));
        }
        d
    }

    /// An exponentially distributed spike, via inverse transform.
    #[cold]
    fn spike(&mut self) -> GrayDuration {
        let u: f64 = self.rng.random_range(f64::EPSILON..1.0);
        SPIKE_MEAN.mul_f64(-u.ln())
    }

    /// Quantizes a clock reading to the configured timer granularity. A
    /// quantum of 0 or 1 ns is an exact clock: no division on that path.
    #[inline]
    pub fn quantize(&self, t: Nanos) -> Nanos {
        let q = self.params.timer_quantum_ns;
        if q <= 1 {
            return t;
        }
        Nanos(t.0 / q * q)
    }
}

/// A bank of CPUs, each free from some instant onward.
#[derive(Debug, Clone)]
pub struct CpuBank {
    free_at: Vec<Nanos>,
}

impl CpuBank {
    /// Creates `n` idle CPUs.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1, "need at least one CPU");
        CpuBank {
            free_at: vec![Nanos::ZERO; n as usize],
        }
    }

    /// Runs `work` for a process whose local clock reads `now`, returning
    /// the completion instant. Picks the earliest-free CPU, the lowest
    /// index among equals (the test-only `earliest_free` is the definition);
    /// the work starts when both the process and the CPU are ready.
    #[inline]
    pub fn run(&mut self, now: Nanos, work: GrayDuration) -> Nanos {
        // Every kernel entry charges CPU, a page touch three times: one
        // compare per CPU, and `<` keeps the first of equals.
        let mut slot = 0;
        for i in 1..self.free_at.len() {
            if self.free_at[i] < self.free_at[slot] {
                slot = i;
            }
        }
        let end = now.max(self.free_at[slot]) + work;
        self.free_at[slot] = end;
        end
    }

    /// The CPU `run` must pick, as a definition: the minimum `(free
    /// instant, index)`. `run`'s loop is checked against it.
    #[cfg(test)]
    fn earliest_free(&self) -> usize {
        let cpus = self.free_at.iter().enumerate();
        let (slot, _) = cpus
            .min_by_key(|(i, &t)| (t, *i))
            .expect("at least one CPU");
        slot
    }
}

#[cfg(test)]
mod tests {
    use gray_toolbox::prop::{check, Gen};

    use super::*;

    #[test]
    fn zero_noise_is_identity() {
        let mut n = Noise::new(NoiseParams::none(), 7);
        let d = GrayDuration::from_micros(10);
        for _ in 0..100 {
            assert_eq!(n.apply(d), d);
        }
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut n = Noise::new(
            NoiseParams {
                jitter_frac: 0.1,
                spike_prob: 0.0,
                ..NoiseParams::none()
            },
            7,
        );
        let d = GrayDuration::from_micros(100);
        for _ in 0..1000 {
            let out = n.apply(d);
            assert!(out >= d.mul_f64(0.9) && out <= d.mul_f64(1.1), "{out}");
        }
    }

    #[test]
    fn spikes_occur_at_roughly_configured_rate() {
        let mut n = Noise::new(
            NoiseParams {
                jitter_frac: 0.0,
                spike_prob: 0.05,
                timer_quantum_ns: 1,
            },
            7,
        );
        let d = GrayDuration::from_micros(1);
        let extras: Vec<f64> = (0..10_000)
            .map(|_| n.apply(d).as_nanos() - d.as_nanos())
            .filter(|&extra| extra > 0)
            .map(|extra| extra as f64)
            .collect();
        // 500 spikes expected; ±100 is over four standard deviations.
        assert!(
            (400..=600).contains(&extras.len()),
            "spike count {}",
            extras.len()
        );
        let mean = extras.iter().sum::<f64>() / extras.len() as f64;
        let want = SPIKE_MEAN.as_nanos() as f64;
        assert!(
            (0.8 * want..=1.2 * want).contains(&mean),
            "mean spike {mean:.0} ns, SPIKE_MEAN {want} ns"
        );
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let params = NoiseParams::default();
        let mut a = Noise::new(params, 42);
        let mut b = Noise::new(params, 42);
        let d = GrayDuration::from_micros(5);
        for _ in 0..100 {
            assert_eq!(a.apply(d), b.apply(d));
        }
    }

    /// The charge arithmetic's known answers at seed 7 — jitter draw,
    /// `mul_f64`, spike draw — with spikes frequent enough to land on every
    /// duration; 0 ns takes no jitter draw. Every digest rests on these.
    #[test]
    fn noise_replays_its_known_answers() {
        const KNOWN: [u64; 256] = [
            0, 36, 245, 1485, 8541, 871_985, 0, 43, 250, 1348, 7947, 1_052_686, 0, 40, 317_566,
            1448, 9818, 1_002_275, 0, 41, 257, 1608, 9317, 969_812, 0, 38, 235, 1300, 8243,
            1_019_836, 0, 37, 241, 1598, 10_024, 938_063, 0, 92_779, 261, 1659, 9921, 1_147_820, 0,
            44, 245, 1496, 8582, 851_001, 0, 42, 255, 1489, 10_070, 1_108_902, 0, 39, 243, 1304,
            9471, 1_036_891, 0, 37, 226, 1690, 8658, 878_363, 0, 44, 242, 1712, 9044, 916_901, 0,
            34, 285, 1423, 9968, 999_500, 119_876, 45, 413_271, 1483, 8807, 1_007_931, 0, 42, 243,
            1551, 8512, 970_728, 0, 31_637, 261, 1388, 8144, 1_028_235, 0, 36, 259, 1430, 9467,
            850_375, 0, 42, 232, 1452, 10_317, 1_056_884, 0, 34, 245, 1399, 8722, 861_244, 15_598,
            37, 262, 256_058, 8535, 971_869, 0, 98_850, 236, 1570, 8883, 996_392, 0, 35, 270, 1344,
            212_832, 1_115_177, 0, 43, 262, 1587, 10_261, 1_471_707, 0, 42, 270, 1668, 9118,
            1_109_005, 0, 45, 282, 1498, 9177, 1_003_218, 0, 42, 254, 1648, 8518, 937_265, 7043,
            46, 265, 1352, 9869, 936_304, 0, 35, 278, 1703, 9163, 1_134_696, 0, 42, 251, 1428,
            8151, 1_099_710, 0, 45, 278, 1622, 9860, 929_223, 0, 37, 271, 1347, 8307, 1_033_389, 0,
            39, 227, 1644, 8971, 1_124_935, 0, 36, 265, 1302, 7894, 1_149_552, 0, 35, 217, 781_393,
            8147, 864_500, 0, 37, 231, 1566, 9007, 1_032_599, 0, 45, 284, 1483, 10_030, 922_574, 0,
            46, 235, 1413, 10_093, 1_136_634, 0, 37, 282, 158_529, 7926, 934_349, 0, 246_613, 261,
            86_622, 9465, 990_623, 0, 43, 251, 1447, 9631, 1_041_276, 0, 35, 278, 1562, 8952,
            880_473, 0, 35, 287, 1600, 9180, 1_022_486, 0, 39, 263, 1539,
        ];
        let params = NoiseParams {
            jitter_frac: 0.15,
            spike_prob: 0.05,
            timer_quantum_ns: 1,
        };
        let mut n = Noise::new(params, 7);
        let durations = [0, 40, 250, 1_500, 9_000, 1_000_000].into_iter().cycle();
        for (i, (d, want)) in durations.zip(KNOWN).enumerate() {
            assert_eq!(n.apply(GrayDuration(d)), GrayDuration(want), "charge {i}");
        }
    }

    /// Each jitter table against the exact function it caches, for every
    /// tabled cost: at the first draw of every step and the draw before
    /// it, both found by bisecting the exact function (not the table), and
    /// at random draws. Alongside, the spike cutoff against `random_bool`'s
    /// own comparison either side of it. At 0.05 and 0.15, then at random
    /// jitters in (0, 1); CI runs this with `PROP_CASES=500`.
    #[test]
    fn jitter_tables_and_spike_cutoff_match_their_definitions() {
        const TOP: u64 = (1 << 53) - 1;
        fn agree(g: &mut Gen, jitter_frac: f64) {
            let spike_prob = g.f64(0.0..=1.0) * [1.0, 1e-6, 1e-15][g.usize(0..3)];
            let params = NoiseParams {
                jitter_frac,
                spike_prob,
                timer_quantum_ns: 1,
            };
            let noise = Noise::new(params, 0);
            for (d, table) in TABLED.into_iter().zip(&noise.tables) {
                let exact = |bits| jittered(d, jitter_frac, bits);
                let mut draws = vec![0, TOP];
                for charge in exact(0) + 1..=exact(TOP) {
                    // exact(lo) < charge <= exact(hi)
                    let (mut lo, mut hi) = (0, TOP);
                    while hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        if exact(mid) >= charge {
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                    }
                    draws.extend([hi - 1, hi]);
                }
                draws.extend((0..64).map(|_| g.u64(0..=TOP)));
                for bits in draws {
                    let want = exact(bits);
                    assert_eq!(
                        table.charge(bits),
                        want,
                        "{d} at {jitter_frac}, draw {bits:#x}"
                    );
                }
            }
            let cutoff = noise.spike_below;
            let draws = [0, 1, TOP, g.u64(0..=TOP), cutoff.saturating_sub(1), cutoff];
            for bits in draws.into_iter().filter(|&b| b <= TOP) {
                let random_bool = (bits as f64) < spike_prob * (1u64 << 53) as f64;
                assert_eq!(
                    bits < cutoff,
                    random_bool,
                    "p {spike_prob:e}, draw {bits:#x}"
                );
            }
        }
        let mut g = Gen::from_seed(0);
        agree(&mut g, 0.05);
        agree(&mut g, 0.15);
        check("jitter_tables", 60, |g: &mut Gen| {
            let jitter_frac = g.f64(0.0..1.0).max(f64::MIN_POSITIVE);
            agree(g, jitter_frac);
        });
    }

    #[test]
    fn quantization_truncates() {
        let n = Noise::new(
            NoiseParams {
                timer_quantum_ns: 1000,
                ..NoiseParams::none()
            },
            0,
        );
        assert_eq!(n.quantize(Nanos(1999)), Nanos(1000));
        assert_eq!(n.quantize(Nanos(2000)), Nanos(2000));
    }

    #[test]
    fn quantize_model_matches_truncating_division() {
        check("quantize_model", 60, |g: &mut Gen| {
            for timer_quantum_ns in [0, 1, 1000] {
                let params = NoiseParams {
                    timer_quantum_ns,
                    ..NoiseParams::none()
                };
                let n = Noise::new(params, 0);
                let q = timer_quantum_ns.max(1);
                // Either side of a quantum boundary, and anywhere.
                let near = g.u64(0..1 << 40) * 1000 + g.u64(0..3);
                for t in [0, near.saturating_sub(1), near, g.u64(0..u64::MAX)] {
                    assert_eq!(n.quantize(Nanos(t)), Nanos(t / q * q), "q {q}, t {t}");
                }
            }
        });
    }

    /// CI runs the two `_model` tests here with `PROP_CASES=500`.
    #[test]
    fn cpu_bank_model_matches_min_by_key() {
        check("cpu_bank_model", 60, |g: &mut Gen| {
            let mut bank = CpuBank::new(g.u64(1..9) as u32);
            let mut now = Nanos::ZERO;
            for step in 0..g.usize(1..200) {
                // Few distinct durations, zero among them, and a caller that
                // is sometimes ahead of every CPU and sometimes behind: free
                // instants tie all the time.
                now += GrayDuration(g.u64(0..4) * 10);
                let work = GrayDuration(g.u64(0..3) * 10);
                let slot = bank.earliest_free();
                let mut expect = bank.free_at.clone();
                expect[slot] = now.max(expect[slot]) + work;
                assert_eq!(bank.run(now, work), expect[slot], "step {step}");
                assert_eq!(bank.free_at, expect, "step {step}");
            }
        });
    }

    #[test]
    fn single_cpu_serializes_work() {
        let mut bank = CpuBank::new(1);
        let e1 = bank.run(Nanos::ZERO, GrayDuration::from_micros(10));
        assert_eq!(e1, Nanos::from_micros(10));
        // A second process at time 0 must queue behind the first.
        let e2 = bank.run(Nanos::ZERO, GrayDuration::from_micros(5));
        assert_eq!(e2, Nanos::from_micros(15));
    }

    #[test]
    fn two_cpus_run_in_parallel() {
        let mut bank = CpuBank::new(2);
        let e1 = bank.run(Nanos::ZERO, GrayDuration::from_micros(10));
        let e2 = bank.run(Nanos::ZERO, GrayDuration::from_micros(10));
        assert_eq!(e1, Nanos::from_micros(10));
        assert_eq!(e2, Nanos::from_micros(10));
    }

    #[test]
    fn late_process_does_not_wait_for_idle_cpu() {
        let mut bank = CpuBank::new(1);
        let _ = bank.run(Nanos::ZERO, GrayDuration::from_micros(1));
        let end = bank.run(Nanos::from_micros(100), GrayDuration::from_micros(1));
        assert_eq!(end, Nanos::from_micros(101));
    }
}
