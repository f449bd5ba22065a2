//! Fast platform-specific timers (paper Section 5, "Measuring Output").
//!
//! Timing is added to *many* operations by an ICL, so the timer must be
//! cheap, and probes complete in microseconds, so it must be fine-grained.
//! On x86_64 this uses the `rdtsc` cycle counter (the paper: "on Intel
//! machines, we use the rdtsc instruction"), calibrated once against the
//! OS monotonic clock; elsewhere it falls back to `std::time::Instant`.

use std::time::Instant;

use gray_toolbox::Nanos;

/// A calibrated high-resolution timer.
pub struct FastTimer {
    base: Instant,
    #[cfg(target_arch = "x86_64")]
    tsc: Option<TscCalibration>,
}

#[cfg(target_arch = "x86_64")]
struct TscCalibration {
    base_ticks: u64,
    nanos_per_tick: f64,
}

impl FastTimer {
    /// Creates and (on x86_64) calibrates the timer. Calibration spins for
    /// about a millisecond.
    pub fn new() -> Self {
        let base = Instant::now();
        #[cfg(target_arch = "x86_64")]
        {
            let tsc = Self::calibrate(base);
            FastTimer { base, tsc }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            FastTimer { base }
        }
    }

    /// Reads the timer.
    pub fn now(&self) -> Nanos {
        #[cfg(target_arch = "x86_64")]
        if let Some(tsc) = &self.tsc {
            // SAFETY: `_rdtsc` has no preconditions; it reads the CPU
            // timestamp counter and is available whenever calibration
            // succeeded at startup.
            let ticks = unsafe { core::arch::x86_64::_rdtsc() };
            let delta = ticks.saturating_sub(tsc.base_ticks);
            return Nanos((delta as f64 * tsc.nanos_per_tick) as u64);
        }
        Nanos(self.base.elapsed().as_nanos() as u64)
    }

    #[cfg(target_arch = "x86_64")]
    fn calibrate(base: Instant) -> Option<TscCalibration> {
        // SAFETY: see `now`; reading the TSC is side-effect free.
        let t0 = unsafe { core::arch::x86_64::_rdtsc() };
        let i0 = Instant::now();
        // Spin for ~1 ms of wall time.
        while i0.elapsed().as_micros() < 1000 {
            std::hint::spin_loop();
        }
        // SAFETY: see `now`.
        let t1 = unsafe { core::arch::x86_64::_rdtsc() };
        let elapsed_ns = i0.elapsed().as_nanos() as f64;
        let ticks = t1.saturating_sub(t0);
        if ticks == 0 {
            return None; // TSC not usable (emulator, weird virtualization).
        }
        let nanos_per_tick = elapsed_ns / ticks as f64;
        if !(0.01..=100.0).contains(&nanos_per_tick) {
            return None;
        }
        // Re-anchor so now() starts near zero relative to `base`.
        let offset_ns = base.elapsed().as_nanos() as f64;
        let base_ticks = t1.saturating_sub((offset_ns / nanos_per_tick) as u64);
        Some(TscCalibration {
            base_ticks,
            nanos_per_tick,
        })
    }
}

impl Default for FastTimer {
    fn default() -> Self {
        FastTimer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotone_nondecreasing() {
        let t = FastTimer::new();
        let mut last = t.now();
        for _ in 0..1000 {
            let now = t.now();
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn timer_tracks_wall_time_roughly() {
        let t = FastTimer::new();
        let a = t.now();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let b = t.now();
        let elapsed_ms = b.since(a).as_millis_f64();
        assert!(
            (5.0..500.0).contains(&elapsed_ms),
            "10ms sleep measured as {elapsed_ms}ms"
        );
    }

    #[test]
    fn timer_resolution_is_sub_microsecond() {
        // Two adjacent reads should usually differ by well under 1 us.
        let t = FastTimer::new();
        let mut min_delta = u64::MAX;
        for _ in 0..100 {
            let a = t.now();
            let b = t.now();
            min_delta = min_delta.min(b.since(a).as_nanos());
        }
        assert!(min_delta < 1_000, "adjacent reads {min_delta}ns apart");
    }
}
