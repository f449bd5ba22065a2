//! Time representation shared by all gray-box components.
//!
//! Every observation an ICL makes ultimately reduces to "how long did this
//! operation take?", so the representation of time is the most shared piece
//! of vocabulary in the toolbox. [`Nanos`] is an absolute instant on some
//! clock (virtual or host); [`Duration`] is the difference of two instants.
//!
//! Both are thin `u64`/`i64`-free wrappers: durations are unsigned because a
//! monotone clock never runs backwards, and arithmetic is saturating on
//! subtraction so that a noisy caller can never panic the measurement path.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant, in nanoseconds since an arbitrary epoch.
///
/// The epoch is clock-specific: the simulator starts its virtual clock at
/// zero, while the host timer uses an unspecified monotonic origin. Instants
/// from different clocks must never be mixed; the type system cannot enforce
/// this, so ICL code keeps a single clock per session.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

/// A span of time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Nanos {
    /// The zero instant (the simulator's boot time).
    pub const ZERO: Nanos = Nanos(0);

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is in
    /// the future (which can happen when comparing noisy host timestamps).
    pub fn since(self, earlier: Nanos) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds, truncating below 1 ns and
    /// clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            Duration(0)
        } else {
            Duration((s * 1e9) as u64)
        }
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span expressed as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This span expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scales the span by a non-negative factor, rounding to nearest
    /// (halves away from zero), exactly as `f64::round` would: the noise
    /// model and the per-page copy charge call this on every simulated
    /// page, and baseline x86-64 has no rounding instruction, only libm.
    pub fn mul_f64(self, factor: f64) -> Self {
        debug_assert!(factor >= 0.0, "durations cannot be scaled negative");
        Duration(round_to_u64(self.0 as f64 * factor))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

/// `x.round().max(0.0) as u64` without the call to `round`.
fn round_to_u64(x: f64) -> u64 {
    /// 2^52: from here up every `f64` is an integer.
    const INTEGERS_FROM: f64 = 4_503_599_627_370_496.0;
    // Truncates; saturates at the top, and NaN and negatives give 0.
    let whole = x as u64;
    if x >= INTEGERS_FROM {
        return whole;
    }
    // Below 2^52 `whole` converts back exactly and so does the difference,
    // so the tie test sees the true fraction (`x + 0.5` would round).
    whole + u64::from(x - whole as f64 >= 0.5)
}

impl Add<Duration> for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Duration) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Nanos {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Nanos> for Nanos {
    type Output = Duration;
    fn sub(self, rhs: Nanos) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_round_trips() {
        let t0 = Nanos::from_micros(10);
        let t1 = t0 + Duration::from_micros(5);
        assert_eq!(t1.since(t0), Duration::from_micros(5));
        assert_eq!(t1 - t0, Duration::from_micros(5));
    }

    #[test]
    fn since_saturates_instead_of_panicking() {
        let t0 = Nanos::from_secs(1);
        let t1 = Nanos::from_secs(2);
        assert_eq!(t0.since(t1), Duration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn negative_fractional_seconds_clamp_to_zero() {
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
    }

    #[test]
    fn scaling_rounds_to_nearest() {
        assert_eq!(Duration(10).mul_f64(0.26), Duration(3));
        assert_eq!(Duration(10).mul_f64(0.0), Duration(0));
    }

    #[test]
    fn integer_rounding_is_f64_round_bit_for_bit() {
        let reference = |x: f64| x.round().max(0.0) as u64;
        let below_half = 0.499_999_999_999_999_94; // 0.5 - 2^-54
        for (x, want) in [
            (0.5, 1),
            (1.5, 2),
            (2.5, 3),
            (below_half, 0),
            (4_503_599_627_370_495.5, 4_503_599_627_370_496), // 2^52 - 0.5
            (4_503_599_627_370_497.0, 4_503_599_627_370_497),
            (1.8e19, 18_000_000_000_000_000_000),
            (1.9e19, u64::MAX),
            (f64::INFINITY, u64::MAX),
            (f64::NAN, 0),
            (-0.0, 0),
            (-0.7, 0),
            (f64::NEG_INFINITY, 0),
        ] {
            assert_eq!(round_to_u64(x), want, "{x:e}");
            assert_eq!(reference(x), want, "reference at {x:e}");
        }
        crate::prop::check("round_to_u64", 2000, |g| {
            let x = match g.usize(0..6) {
                // Ties and their two neighbours, wherever halves still exist.
                0 => {
                    let tie = g.u64(0..1 << 52) as f64 + 0.5;
                    let nudged = tie.to_bits() + g.u64(0..3) - 1;
                    f64::from_bits(nudged)
                }
                // Any bit pattern: subnormals, negatives, infinities, NaNs.
                1 => f64::from_bits(g.u64(0..=u64::MAX)),
                // Around 2^52 and around the saturation point 2^64.
                2 => g.f64(4.0e15..5.0e15),
                3 => g.f64(1.0e19..2.0e19),
                // `mul_f64` over every duration, `i64::MAX` and above too.
                4 => {
                    let d = match g.usize(0..3) {
                        0 => g.u64(0..=u64::MAX),
                        1 => i64::MAX as u64 - 2 + g.u64(0..5),
                        _ => g.u64(0..10_000_000_000),
                    };
                    let f = g.f64(0.0..4.0);
                    let want = (d as f64 * f).round().max(0.0) as u64;
                    assert_eq!(Duration(d).mul_f64(f), Duration(want), "{d} x {f:e}");
                    d as f64 * f
                }
                // What the simulator feeds it: a duration times a factor.
                _ => g.u64(0..10_000_000_000) as f64 * g.f64(0.0..4.0),
            };
            assert_eq!(round_to_u64(x), reference(x), "{x:e} ({:#x})", x.to_bits());
        });
    }

    #[test]
    fn display_picks_a_readable_unit() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Duration::from_secs(12)), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [Duration(1), Duration(2), Duration(3)].into_iter().sum();
        assert_eq!(total, Duration(6));
    }
}
